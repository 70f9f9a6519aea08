package pts

import "pts/internal/store"

// Store is durable key-value state for crash-only operation: a solver
// run given one (WithStore) snapshots its progress at its
// synchronization barriers, and a serving daemon given one
// (ServerOptions.Store) journals its jobs — either can then be killed
// at any instant and restarted over the same store to continue where
// it stopped. See WithStore and ServerOptions.Store for the exact
// resume semantics.
//
// A run writes its snapshots from a goroutine of its own, behind the
// search, so a serving daemon's store sees concurrent Puts: one job's
// journal beside its own and other jobs' snapshots. One job's journal
// writes land in order.
//
// A Store is a flat namespace of slash-separated keys to opaque byte
// values; implementations must make Put atomic (a reader sees the old
// value or the new one, never a torn write). The two built-ins cover
// the usual cases: NewFileStore persists to a directory, NewMemStore
// keeps everything in process memory.
type Store = store.Store

// NewFileStore opens a file-backed store rooted at dir, creating the
// directory if needed. Writes are atomic (temp file + rename) and
// fsynced, so state survives a process kill at any instant; one
// directory must not be shared by two live processes.
func NewFileStore(dir string) (Store, error) { return store.Open(dir) }

// NewMemStore returns an in-memory store: the same semantics with
// process-lifetime durability. Useful for tests and for exercising
// resume logic without touching disk.
func NewMemStore() Store { return store.NewMem() }
