package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pts/internal/cluster"
	"pts/internal/cost"
	"pts/internal/netlist"
	"pts/internal/pvm"
	"pts/internal/store"
)

// testProblem builds a small placement problem for transport tests.
func testProblem(cfg Config) Problem {
	return cost.NewPlacementProblem(netlist.MustBenchmark("highway"), cfg.Utilization, cfg.Cost)
}

// abortingTransport simulates a distributed run whose worker died
// before anything happened: Run never executes root and reports an
// abort, the way nettrans does after a node loss.
type abortingTransport struct{ ran bool }

func (a *abortingTransport) Run(opts pvm.Options, root pvm.TaskFunc) (float64, error) {
	a.ran = true
	return 0.25, fmt.Errorf("worker \"w0\" lost: %w", pvm.ErrAborted)
}

func TestTransportAbortReportsInterrupted(t *testing.T) {
	cfg := DefaultConfig()
	prob := testProblem(cfg)
	cfg.GlobalIters, cfg.LocalIters = 2, 5
	tr := &abortingTransport{}
	cfg.Transport = tr
	res, err := RunProblem(context.Background(), prob, cluster.Homogeneous(4, 1), cfg, Real)
	if err != nil {
		t.Fatalf("an aborted run must still report best-so-far, got error %v", err)
	}
	if !tr.ran {
		t.Fatal("transport was not used")
	}
	if !res.Interrupted {
		t.Error("Interrupted not set after transport abort")
	}
	if res.BestCost != res.InitialCost || res.BestPerm == nil {
		t.Errorf("best-so-far should be the initial solution, got cost %v", res.BestCost)
	}
}

func TestVirtualModeIgnoresTransport(t *testing.T) {
	cfg := DefaultConfig()
	prob := testProblem(cfg)
	cfg.GlobalIters, cfg.LocalIters = 2, 5
	tr := &abortingTransport{}
	cfg.Transport = tr
	res, err := RunProblem(context.Background(), prob, cluster.Homogeneous(4, 1), cfg, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ran {
		t.Error("virtual mode must not touch the transport")
	}
	if res.Interrupted {
		t.Error("virtual run reported interrupted")
	}
}

// TestWireConfigRoundTrip sets every exported Config field to a
// distinct non-zero value and checks that the job payload carries all
// of them except the master-local ones named here. A Config field added
// without a wireConfig field fails it until it is carried or named.
func TestWireConfigRoundTrip(t *testing.T) {
	masterLocal := map[string]bool{
		"Store":       true, // the master persists its own snapshots
		"RunID":       true, // names the master's snapshot key
		"Progress":    true,
		"Transport":   true,
		"WorkScale":   true, // travels in the job frame, not the config
		"ProblemSpec": true, // travels as jobPayload.Spec
	}
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	for name := range masterLocal {
		if !v.FieldByName(name).IsValid() {
			t.Fatalf("master-local field %s is not a Config field", name)
		}
	}
	next := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Name {
		case "Progress":
			cfg.Progress = func(Snapshot) {}
		case "Transport":
			cfg.Transport = &abortingTransport{}
		case "Store":
			cfg.Store = store.NewMem()
		default:
			if !fillNonZero(v.Field(i), &next) {
				t.Fatalf("Config.%s (%s): no test value; give it one here and carry it in wireConfig or name it master-local", f.Name, f.Type)
			}
		}
	}

	got := cfg.wire().config()
	want := cfg
	w := reflect.ValueOf(&want).Elem()
	for name := range masterLocal {
		f := w.FieldByName(name)
		f.Set(reflect.Zero(f.Type()))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wire round trip mangled the config:\ngot  %+v\nwant %+v", got, want)
	}
}

// fillNonZero sets v, recursively, to distinct non-zero values drawn
// from *next, so a field copied into the wrong slot shows. It reports
// false for kinds it has no value for.
func fillNonZero(v reflect.Value, next *int) bool {
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fillNonZero(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && !fillNonZero(v.Field(i), next) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

func TestWorkerHandlerRefusesMismatchedProblem(t *testing.T) {
	cfg := DefaultConfig()
	h := &workerHandler{prob: testProblem(cfg)}
	st, err := h.prob.Initial(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	good := jobPayload{
		Problem:     h.prob.Name(),
		Size:        h.prob.Size(),
		InitialCost: st.Cost(),
		Cfg:         cfg.wire(),
	}
	if _, err := h.Start(good); err != nil {
		t.Fatalf("matching job refused: %v", err)
	}

	bad := good
	bad.Size = good.Size + 1
	_, err = h.Start(bad)
	if err == nil || !strings.Contains(err.Error(), "this worker built") {
		t.Errorf("mismatched size accepted (err = %v)", err)
	}

	// Same name and size but different instance content: the initial
	// cost is the discriminator (e.g. RandomQAP with another seed).
	impostor := good
	impostor.InitialCost = good.InitialCost * 1.5
	_, err = h.Start(impostor)
	if err == nil || !strings.Contains(err.Error(), "does not reproduce") {
		t.Errorf("mismatched instance data accepted (err = %v)", err)
	}

	if _, err := h.Start("nonsense"); err == nil {
		t.Error("garbage payload accepted")
	}
}
