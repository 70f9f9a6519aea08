// Package nettrans is the distributed transport of the PVM substrate:
// it runs the same master/TSW/CLW protocol that the in-process
// transport hosts on goroutines across real OS processes connected over
// TCP.
//
// Topology is a star, like PVM's daemon routing: worker processes dial
// the master, register their name, relative speed and capacity (how
// many machine slots they contribute — the heterogeneity knobs the
// in-process cluster model expresses as pts/internal/cluster speed
// factors), and the master routes every cross-process frame. Tasks
// whose target machine slot belongs to the master process run in it;
// all others are rebuilt on their owning worker from the portable
// pvm.Spec the program provides.
//
// Frames are length-prefixed gob: a 4-byte big-endian length followed
// by one gob-encoded frame struct. Each connection carries one
// self-describing gob stream per direction, and message data rides
// inside the frame as a gob interface value, so a type descriptor
// crosses each connection once, not once per message. The master
// decodes every frame it receives; it relays a worker-to-worker message
// by writing the decoded frame to the destination's connection, whose
// encoder re-encodes the data. Oversized or undecodable frames are
// rejected and the offending connection dropped — including a frame
// whose data names a type this process never registered with gob. A
// frame that fails to encode drops its connection too: the failed
// Encode leaves the stream's type state out of step with the peer.
// Workers reconnect with exponential backoff; a worker lost mid-run
// aborts the run (pvm.ErrAborted) after draining what can be drained,
// so the master still reports its best-so-far.
package nettrans

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"pts/internal/pvm"
)

// frameType discriminates protocol frames.
type frameType uint8

const (
	// fJoin registers a worker with the master (worker→master).
	fJoin frameType = iota + 1
	// fJoinAck accepts or refuses a join; Err holds the refusal reason
	// (master→worker).
	fJoinAck
	// fJob starts a job on a worker: the program payload plus the
	// worker's machine-slot assignment (master→worker).
	fJob
	// fJobErr refuses a job — e.g. the worker's locally constructed
	// problem does not match the master's (worker→master).
	fJobErr
	// fSpawn hosts a task on a worker (master→worker).
	fSpawn
	// fSpawnReq asks the master to allocate and place a task spawned by
	// a worker-hosted task (worker→master).
	fSpawnReq
	// fSpawnAck answers an fSpawnReq with the allocated ID
	// (master→worker).
	fSpawnAck
	// fMsg carries one task-to-task message (both directions).
	fMsg
	// fTaskDone reports a hosted task's termination (worker→master).
	fTaskDone
	// fCancel propagates cooperative context cancellation: tasks see
	// Cancelled() and drain the protocol normally (master→worker).
	fCancel
	// fAbort tears the job down: blocked tasks unwind immediately
	// (master→worker).
	fAbort
	// fEndJob announces that every task finished and asks for the
	// worker's counters (master→worker).
	fEndJob
	// fBye returns the worker's counters for the job (worker→master).
	fBye
	// fResult delivers the program's final summary and closes the job
	// (master→worker).
	fResult
	// fNotify registers a task-exit watch: the sending task asks to
	// receive a pvm.TagExit message should the process hosting the
	// watched task be lost (worker→master).
	fNotify
	// fRing announces elastic slot-ring growth — an absorbed late
	// joiner's slots appended to TotalSlots/Speeds — to workers already
	// hosting the job, so their machine-index wrapping and speed
	// lookups stay consistent with the master's (master→worker).
	fRing
	// fLeave is a worker's graceful deregistration (SIGTERM drain): the
	// master retires the node deliberately — idle nodes leave the
	// registry quietly, a node hosting tasks has them written off with
	// pvm.TagExit delivered to their watchers, exactly like a loss but
	// orderly — and closes the connection (worker→master).
	fLeave
	// fSlotReq asks where a replacement task should be spawned — the
	// pvm.RespawnPlacer query of a worker-hosted task, with the
	// preferred slot in Machine (worker→master).
	fSlotReq
	// fSlotAck answers an fSlotReq with a live slot in Machine
	// (master→worker).
	fSlotAck
)

// frame is the single wire message; which fields are meaningful depends
// on Type. Keeping one struct keeps the gob stream self-describing and
// the codec trivial.
type frame struct {
	Type frameType

	// Join / JoinAck.
	Worker   string
	Speed    float64
	Capacity int
	Err      string

	// Job: the node's machine-slot window [Slot, Slot+Slots) of
	// TotalSlots, the run seed and work-emulation scale, and the
	// program payload. Speeds is the slot-indexed table of declared
	// relative machine speeds (slot 0 is the master, speed 1.0), so
	// worker-hosted schedulers can seed speed-proportional work shares;
	// slots absorbed after this frame was sent are simply absent and
	// default to 1.0 on the reader.
	Seed       uint64
	WorkScale  float64
	Slot       int
	Slots      int
	TotalSlots int
	Speeds     []float64

	// Spawn / SpawnReq / SpawnAck / SlotReq / SlotAck / TaskDone.
	Task    pvm.TaskID
	Name    string
	Machine int
	Kind    string
	Seq     uint64

	// Msg.
	From pvm.TaskID
	To   pvm.TaskID
	Tag  pvm.Tag

	// Data is the message data (fMsg), spec data (fSpawn/fSpawnReq),
	// program payload (fJob) or final summary (fResult). Its concrete
	// type must be gob-registered on both sides.
	Data any

	// Bye.
	Sends int64
}

// maxFrame bounds one frame's encoded size; anything larger is treated
// as a malformed or hostile stream and the connection is dropped.
const maxFrame = 64 << 20

// conn wraps a TCP connection with the frame codec. Reads are owned by
// a single goroutine; writes are serialized by the mutex so any task
// goroutine may send.
//
// Both directions keep one persistent gob codec for the connection's
// lifetime, so the frame type and every data type cross the wire once,
// not per message — while every Encode is still framed by a 4-byte
// length prefix, which is what lets the reader bound and reject
// malformed or oversized frames before gob ever parses them.
type conn struct {
	nc net.Conn

	r       *bufio.Reader
	dec     *gob.Decoder
	decSrc  bytes.Reader // the frame being decoded
	readBuf bytes.Buffer
	readLim io.LimitedReader // kept here so a read allocates nothing

	mu     sync.Mutex
	w      *bufio.Writer
	enc    *gob.Encoder
	encBuf bytes.Buffer
	broken atomic.Pointer[error] // the Encode failure that retired the connection
}

func newConn(nc net.Conn) *conn {
	c := &conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	c.enc = gob.NewEncoder(&c.encBuf)
	c.dec = gob.NewDecoder(&c.decSrc)
	return c
}

// write encodes f as one length-prefixed gob frame. An Encode failure
// (data of an unregistered or unencodable type) may already have
// marked type descriptors as sent that the peer never receives, so it
// closes the connection and fails every later write with the same
// error.
func (c *conn) write(f *frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.broken.Load(); err != nil {
		return *err
	}
	c.encBuf.Reset()
	if err := c.enc.Encode(f); err != nil {
		err = fmt.Errorf("nettrans: encode frame: %w", err)
		c.broken.Store(&err)
		c.nc.Close()
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(c.encBuf.Len()))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(c.encBuf.Bytes()); err != nil {
		return err
	}
	return c.w.Flush()
}

// read decodes the next frame, rejecting malformed input: a length
// outside (0, maxFrame], a gob stream that does not decode to a frame
// (data of an unregistered type included) or trailing bytes fail the
// connection. The frame buffer grows with the bytes that actually
// arrive, so a length prefix alone allocates nothing.
func (c *conn) read() (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, c.readErr(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("nettrans: malformed frame: length %d", n)
	}
	c.readBuf.Reset()
	c.readLim = io.LimitedReader{R: c.r, N: int64(n)}
	if _, err := c.readBuf.ReadFrom(&c.readLim); err != nil {
		return nil, c.readErr(err)
	}
	if c.readLim.N != 0 {
		return nil, io.ErrUnexpectedEOF
	}
	c.decSrc.Reset(c.readBuf.Bytes())
	var f frame
	if err := c.dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("nettrans: malformed frame: %w", err)
	}
	if c.decSrc.Len() != 0 {
		return nil, fmt.Errorf("nettrans: malformed frame: %d trailing bytes", c.decSrc.Len())
	}
	return &f, nil
}

// readErr reports the Encode failure that closed the connection, if
// there was one, in place of the read error the close caused.
func (c *conn) readErr(err error) error {
	if broken := c.broken.Load(); broken != nil {
		return *broken
	}
	return err
}

func (c *conn) close() error { return c.nc.Close() }

// mailbox is the per-task selective-receive queue shared by every
// nettrans-hosted task (master- or worker-side): an inbox guarded by a
// cond, unwinding the blocked receiver when the run aborts.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	inbox []pvm.Message
}

func (b *mailbox) init() { b.cond = sync.NewCond(&b.mu) }

func (b *mailbox) deliver(m pvm.Message) {
	b.mu.Lock()
	b.inbox = append(b.inbox, m)
	b.mu.Unlock()
	b.cond.Signal()
}

// wake re-evaluates every blocked receiver (the abort path).
func (b *mailbox) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// recv blocks until a matching message arrives; aborted is re-checked
// on every wakeup and unwinds the task when it reports true.
func (b *mailbox) recv(aborted func() bool, tags []pvm.Tag) pvm.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if m, ok := pvm.ScanInbox(&b.inbox, tags); ok {
			return m
		}
		if aborted() {
			pvm.AbortTask()
		}
		b.cond.Wait()
	}
}

func (b *mailbox) tryRecv(tags []pvm.Tag) (pvm.Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return pvm.ScanInbox(&b.inbox, tags)
}
