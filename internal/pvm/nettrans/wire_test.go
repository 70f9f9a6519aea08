package nettrans

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pts/internal/pvm"
	"pts/internal/tabu"
)

// Wire-shaped stand-ins for the engine's heaviest messages (the core
// package's bestMsg, tswCheckpoint and globalMsg): nested structs,
// slices of structs and a nested slice, so the codec tests exercise
// the same gob type graph a TagBest/TagGlobal exchange does.
type (
	wireStats struct {
		LocalIters, CandidatesBuilt, TrialsCharged, MovesAccepted int64
		TabuRejected, Aspirations, Fallbacks, ForcedReports       int64
		Diversifications, Rebalances, WorkersLost, WorkersRespawn int64
	}
	wireSlot struct {
		ID               pvm.TaskID
		State            int
		RangeLo, RangeHi int32
		Trials           int
	}
	wireCheckpoint struct {
		WorkerIdx      int
		Iter           int64
		Best           float64
		BestPerm, Perm []int32
		Tabu           []tabu.Entry
		Freq           []int64
		RandSeed       uint64
		Stats          wireStats
		DivLo, DivHi   int32
		CLWs           []wireSlot
	}
	wirePoint struct{ Time, Cost float64 }
	wireBest  struct {
		Cost       float64
		Perm       []int32
		Tabu       []tabu.Entry
		Points     []wirePoint
		Forced     bool
		Stats      wireStats
		Checkpoint wireCheckpoint
	}
	wireGlobal struct {
		Perm             []int32
		Tabu             []tabu.Entry
		RangeLo, RangeHi int32
		Rebalance        bool
	}
	// wireGrid is first sent mid-stream by the relay test, after the
	// other types' descriptors have crossed.
	wireGrid struct {
		Name string
		Rows [][]int32
	}
)

func init() {
	gob.Register(wireBest{})
	gob.Register(wireGlobal{})
	gob.Register(wireGrid{})
	gob.Register(relaySpec{})
}

// ta001Best is a checkpoint-sized TagBest payload for the 20-job
// ta001 instance: 20-element permutations and frequency table, a tabu
// list and a few improvement points.
func ta001Best(seed int) wireBest {
	perm := make([]int32, 20)
	freq := make([]int64, 20)
	for i := range perm {
		perm[i] = int32((i*7 + seed) % 20)
		freq[i] = int64(i * seed)
	}
	tl := make([]tabu.Entry, 8)
	for i := range tl {
		tl[i] = tabu.Entry{At: tabu.Attribute{A: int32(i), B: int32(i + 5)}, Remaining: int64(i + 1)}
	}
	stats := wireStats{LocalIters: 400, CandidatesBuilt: 4800, TrialsCharged: 19200, MovesAccepted: 380}
	return wireBest{
		Cost: 1297 + float64(seed), Perm: perm, Tabu: tl,
		Points: []wirePoint{{0.01, 1350}, {0.02, 1310}},
		Stats:  stats,
		Checkpoint: wireCheckpoint{
			WorkerIdx: 1, Iter: 400, Best: 1297, BestPerm: perm, Perm: perm,
			Tabu: tl, Freq: freq, RandSeed: 0x9e3779b97f4a7c15, Stats: stats,
			DivLo: 0, DivHi: 10, CLWs: []wireSlot{{ID: 3, State: 1, RangeLo: 0, RangeHi: 10, Trials: 12}},
		},
	}
}

// byteConn is a read-only net.Conn over a byte slice: the fuzz target's
// stand-in for a peer's socket.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (b byteConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// encodeStream encodes frames the way one connection's writer does:
// one persistent encoder, so later frames omit descriptors the earlier
// ones sent.
func encodeStream(tb testing.TB, frames ...*frame) []byte {
	tb.Helper()
	var raw, out bytes.Buffer
	enc := gob.NewEncoder(&raw)
	for _, f := range frames {
		raw.Reset()
		if err := enc.Encode(f); err != nil {
			tb.Fatal(err)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(raw.Len()))
		out.Write(hdr[:])
		out.Write(raw.Bytes())
	}
	return out.Bytes()
}

// FuzzConnRead feeds arbitrary byte streams to a fresh connection's
// frame reader: it must fail cleanly — never panic — and never
// allocate more than one maximal frame, whatever lengths the stream
// claims.
func FuzzConnRead(f *testing.F) {
	best, global := ta001Best(1), wireGlobal{Perm: []int32{2, 0, 1}, Tabu: []tabu.Entry{{At: tabu.Attribute{A: 0, B: 2}, Remaining: 3}}, RangeLo: 0, RangeHi: 3, Rebalance: true}
	every := []*frame{
		{Type: fJoin, Worker: "w", Speed: 1.5, Capacity: 2},
		{Type: fJoinAck, Err: "refused"},
		{Type: fJob, Seed: 7, WorkScale: 1e-6, Slot: 1, Slots: 2, TotalSlots: 3, Speeds: []float64{1, 1.5, 1.5}, Data: 42},
		{Type: fJobErr, Err: "wrong problem"},
		{Type: fSpawn, Task: 3, Name: "root/tsw0", Machine: 1, Kind: kindEcho, Data: echoSpec{Parent: 0, Bias: 1}},
		{Type: fSpawnReq, Seq: 1, Name: "root/tsw0/clw0", Machine: 2, Kind: kindEcho, Data: echoSpec{Parent: 3}},
		{Type: fSpawnAck, Seq: 1, Task: 4},
		{Type: fMsg, From: 3, To: 0, Tag: 5, Data: best},
		{Type: fMsg, From: 0, To: 3, Tag: 6, Data: global},
		{Type: fTaskDone, Task: 4},
		{Type: fCancel},
		{Type: fAbort},
		{Type: fEndJob},
		{Type: fBye, Sends: 99},
		{Type: fResult, Data: testSummary{Total: 5}},
		{Type: fNotify, Task: 4, From: 3},
		{Type: fRing, TotalSlots: 4, Speeds: []float64{1, 1, 1, 2}},
		{Type: fLeave},
		{Type: fSlotReq, Seq: 2, Machine: 1},
		{Type: fSlotAck, Seq: 2, Machine: 3},
	}
	for _, fr := range every {
		f.Add(encodeStream(f, fr))
	}
	f.Add(encodeStream(f, every...))
	f.Add(encodeStream(f, every[7], every[8], &frame{Type: fMsg, From: 3, Tag: 5, Data: ta001Best(2)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := newConn(byteConn{r: bytes.NewReader(data)})
		for {
			if _, err := c.read(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame {
			t.Fatalf("reading %d bytes allocated %d bytes, past the %d-byte frame bound", len(data), grew, maxFrame)
		}
	})
}

// BenchmarkFrameRoundTrip writes and reads one fMsg frame carrying a
// checkpoint-sized TagBest payload over an in-memory connection pair:
// the per-message cost of the codec, once the stream has carried the
// type descriptors.
func BenchmarkFrameRoundTrip(b *testing.B) {
	na, nb := net.Pipe()
	defer na.Close()
	defer nb.Close()
	w, r := newConn(na), newConn(nb)
	f := &frame{Type: fMsg, From: 3, To: 0, Tag: 5, Data: ta001Best(1)}
	errs := make(chan error, 1)
	go func() {
		for i := 0; i <= b.N; i++ {
			if err := w.write(f); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	if _, err := r.read(); err != nil { // the descriptor-carrying first frame
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.read(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}

// The relay program: root spawns a receiver on machine 2 and a sender
// on machine 1, which on a two-worker run live on different workers,
// so every sender→receiver message is decoded by the master and
// re-encoded onto the receiver's connection. The receiver echoes each
// value to root.
const (
	kindRelaySend = "test.relay.send"
	kindRelayRecv = "test.relay.recv"
	tagRelay      = pvm.Tag(40)
	tagRelayed    = pvm.Tag(41)
)

type relaySpec struct {
	Peer  pvm.TaskID
	Count int
}

// relayValues mixes registered payload types; wireGrid first appears
// after the stream has carried others, and wireBest repeats so the
// second copy travels without descriptors.
func relayValues() []any {
	return []any{
		7,
		ta001Best(1),
		wireGlobal{Perm: []int32{1, 0}, RangeHi: 2},
		wireGrid{Name: "late", Rows: [][]int32{{1, 2, 3}, {4}}},
		ta001Best(2),
		echoSpec{Parent: 1, Bias: -3},
		wireGrid{Name: "again", Rows: [][]int32{{5}}},
	}
}

func relayFactory(kind string, data any) (pvm.TaskFunc, error) {
	spec, ok := data.(relaySpec)
	if !ok {
		return nil, fmt.Errorf("kind %q wants relaySpec, got %T", kind, data)
	}
	switch kind {
	case kindRelaySend:
		return func(env pvm.Env) {
			for _, v := range relayValues() {
				env.Send(spec.Peer, tagRelay, v)
			}
		}, nil
	case kindRelayRecv:
		return func(env pvm.Env) {
			for i := 0; i < spec.Count; i++ {
				env.Send(spec.Peer, tagRelayed, env.Recv(tagRelay).Data)
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// runRelay runs the relay program and returns what root received.
func runRelay(t *testing.T, tr pvm.Transport) []any {
	t.Helper()
	var got []any
	opts := pvm.Options{Seed: 5, Spawner: relayFactory, Transport: tr}
	_, err := pvm.RunReal(opts, func(env pvm.Env) {
		n := len(relayValues())
		recv := env.SpawnSpec("recv", 2, pvm.Spec{Kind: kindRelayRecv, Data: relaySpec{Peer: env.Self(), Count: n}})
		env.SpawnSpec("send", 1, pvm.Spec{Kind: kindRelaySend, Data: relaySpec{Peer: recv}})
		for i := 0; i < n; i++ {
			got = append(got, env.Recv(tagRelayed).Data)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

// TestRelayedDataIntact sends mixed payload types from a task on one
// worker to a task on another, through the master's decode and
// re-encode, and requires them to arrive exactly as sent and as the
// in-process transport delivers them.
func TestRelayedDataIntact(t *testing.T) {
	want := relayValues()
	if inproc := runRelay(t, nil); !reflect.DeepEqual(inproc, want) {
		t.Fatalf("in-process run delivered %#v, want %#v", inproc, want)
	}

	m, err := Listen(MasterConfig{Addr: "127.0.0.1:0", Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, wait := startWorkers(t, m.Addr(), 2, []float64{1}, relayFactory)
	got := runRelay(t, m)
	m.mu.Lock()
	j := m.exclusive
	m.mu.Unlock()
	j.mu.Lock()
	routed := j.routed
	j.mu.Unlock()
	if err := m.Finish(nil); err != nil {
		t.Errorf("finish: %v", err)
	}
	wait()

	if !reflect.DeepEqual(got, want) {
		t.Errorf("relayed values differ:\n got %#v\nwant %#v", got, want)
	}
	// Every value crosses the master twice: relayed to the receiver's
	// worker, then echoed to root.
	if wantRouted := int64(2 * len(want)); routed != wantRouted {
		t.Errorf("master routed %d frames, want %d: the sender and receiver did not sit on different workers", routed, wantRouted)
	}
}

// TestEncodeFailureRetiresConn: data of an unregistered type fails to
// encode, and the connection is closed for good — the failed Encode
// may have marked descriptors as sent that the peer never saw — so
// later writes and the local reader report the same error and the peer
// sees the connection close.
func TestEncodeFailureRetiresConn(t *testing.T) {
	na, nb := net.Pipe()
	defer nb.Close()
	peerClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, nb)
		close(peerClosed)
	}()
	c := newConn(na)
	type unregistered struct{ N int }
	err := c.write(&frame{Type: fMsg, Data: unregistered{1}})
	if err == nil {
		t.Fatal("frame with unregistered data encoded")
	}
	if again := c.write(&frame{Type: fCancel}); again == nil || again.Error() != err.Error() {
		t.Errorf("write after encode failure = %v, want %v", again, err)
	}
	na.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := c.read(); rerr == nil || rerr.Error() != err.Error() {
		t.Errorf("read after encode failure = %v, want %v", rerr, err)
	}
	select {
	case <-peerClosed:
	case <-time.After(5 * time.Second):
		t.Error("peer still connected after encode failure")
	}
}

// TestWorkerDropsUndecodableJob: a worker that cannot decode an fJob's
// data (a type it never registered) drops the connection like any
// malformed frame — it does not answer fJobErr.
func TestWorkerDropsUndecodableJob(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{Addr: ln.Addr().String(), Name: "w", Jobs: 1}, &echoHandler{})
	}()
	defer func() {
		// Closing the listener first refuses the worker's redial, so it
		// is not left waiting on a join ack.
		ln.Close()
		cancel()
		<-done
	}()

	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc)
	if f, err := c.read(); err != nil || f.Type != fJoin {
		t.Fatalf("join = %+v, %v", f, err)
	}
	// The ack and the job share one stream, as from a real master.
	stream := encodeStream(t, &frame{Type: fJoinAck}, &frame{Type: fJob, TotalSlots: 2, Slot: 1, Slots: 1, Data: ghostData{N: 1}})
	nc.Write(bytes.Replace(stream, []byte("ghost-A"), []byte("ghost-B"), 1))
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := c.read(); err == nil {
		t.Fatalf("worker answered the undecodable job with frame type %d, want a dropped connection", f.Type)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("worker kept the connection open after an undecodable job")
	}
}
