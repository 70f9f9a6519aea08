package core

import (
	"bytes"
	"context"
	"encoding/gob"
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

// highwayProblem builds the small placement problem most tests run.
func highwayProblem() Problem {
	return cost.NewPlacementProblem(netlist.MustBenchmark("highway"))
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
	prob := highwayProblem()
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
	prob := highwayProblem()
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

// TestJobPayloadRoundTrip sets every exported Config field to a
// distinct non-zero value, builds the job payload the way RunProblem
// does and sends it through gob as the transport does (an interface
// value). Workers must decode the master's Config with only its
// process-local Store, Transport and Progress zeroed.
func TestJobPayloadRoundTrip(t *testing.T) {
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
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
				t.Fatalf("Config.%s (%s): no test value; give it one here", f.Name, f.Type)
			}
		}
	}
	prob := highwayProblem()

	var buf bytes.Buffer
	var sent any = newJobPayload(prob, cfg, 1.5)
	if err := gob.NewEncoder(&buf).Encode(&sent); err != nil {
		t.Fatalf("encode payload: %v", err)
	}
	var got any
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode payload: %v", err)
	}
	jp, ok := got.(jobPayload)
	if !ok {
		t.Fatalf("decoded %T, want jobPayload", got)
	}
	want := cfg
	want.Store, want.Transport, want.Progress = nil, nil, nil
	if !reflect.DeepEqual(jp.Cfg, want) {
		t.Errorf("payload round trip mangled the config:\ngot  %+v\nwant %+v", jp.Cfg, want)
	}
	if jp.Problem != prob.Name() || jp.Size != prob.Size() || jp.InitialCost != 1.5 {
		t.Errorf("payload fingerprint = %s/%d/%v", jp.Problem, jp.Size, jp.InitialCost)
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
	h := &workerHandler{prob: highwayProblem()}
	st, err := h.prob.Initial(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	good := newJobPayload(h.prob, cfg, st.Cost())
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

	// A config that fails Validate is refused before any task of it
	// could spawn here (CLWs < 0 would crash the daemon in make).
	for _, mut := range []func(*Config){
		func(c *Config) { c.TSWs = 0 },
		func(c *Config) { c.CLWs = -1 },
	} {
		bad := good
		mut(&bad.Cfg)
		_, err := h.Start(bad)
		if err == nil || !strings.Contains(err.Error(), "invalid config") {
			t.Errorf("TSWs=%d CLWs=%d accepted (err = %v)", bad.Cfg.TSWs, bad.Cfg.CLWs, err)
		}
	}
}
