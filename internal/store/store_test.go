package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// both runs the test against each implementation.
func both(t *testing.T, run func(t *testing.T, s Store)) {
	t.Run("mem", func(t *testing.T) { run(t, NewMem()) })
	t.Run("file", func(t *testing.T) {
		fs, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		run(t, fs)
	})
}

func TestStoreRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, s Store) {
		if _, ok, err := s.Get("runs/a"); err != nil || ok {
			t.Fatalf("Get on empty store = ok:%v err:%v", ok, err)
		}
		want := []byte("hello\x00world")
		if err := s.Put("runs/a", want); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get("runs/a")
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get = %q ok:%v err:%v, want %q", got, ok, err, want)
		}
		// Overwrite replaces.
		if err := s.Put("runs/a", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		got, _, _ = s.Get("runs/a")
		if string(got) != "v2" {
			t.Fatalf("after overwrite Get = %q, want v2", got)
		}
		// Delete removes; deleting again is fine.
		if err := s.Delete("runs/a"); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.Get("runs/a"); ok {
			t.Fatal("Get after Delete still ok")
		}
		if err := s.Delete("runs/a"); err != nil {
			t.Fatalf("double Delete: %v", err)
		}
	})
}

func TestStoreListPrefix(t *testing.T) {
	both(t, func(t *testing.T, s Store) {
		for _, k := range []string{"jobs/j2", "jobs/j10", "jobs/j1", "runs/job-j1"} {
			if err := s.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.List("jobs/")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"jobs/j1", "jobs/j10", "jobs/j2"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("List(jobs/) = %v, want %v", got, want)
		}
		all, err := s.List("")
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 4 {
			t.Fatalf("List(\"\") = %v, want 4 keys", all)
		}
	})
}

func TestStoreRejectsInvalidKeys(t *testing.T) {
	bad := []string{"", ".", "..", "../x", "a/../b", "a//b", "a/", "/a", "a b", "a\x00b", "x/.tmp/..", "ü"}
	both(t, func(t *testing.T, s Store) {
		for _, k := range bad {
			if err := s.Put(k, nil); err == nil {
				t.Errorf("Put(%q) accepted", k)
			}
			if _, _, err := s.Get(k); err == nil {
				t.Errorf("Get(%q) accepted", k)
			}
			if err := s.Delete(k); err == nil {
				t.Errorf("Delete(%q) accepted", k)
			}
		}
	})
}

// TestStoreProperty drives a random op sequence against both
// implementations and a plain map model; all three must agree at every
// step. This is the journal→reopen→identical-state property at the KV
// level (the serve-layer version is in internal/serve).
func TestStoreProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dir := t.TempDir()
	fs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMem()
	model := map[string]string{}
	keys := []string{"jobs/a", "jobs/b", "jobs/c", "runs/a", "runs/deep/x"}
	for i := 0; i < 400; i++ {
		k := keys[r.Intn(len(keys))]
		switch r.Intn(4) {
		case 0, 1: // put
			v := fmt.Sprintf("v%d", r.Intn(1000))
			model[k] = v
			if err := fs.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			if err := ms.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		case 2: // delete
			delete(model, k)
			if err := fs.Delete(k); err != nil {
				t.Fatal(err)
			}
			if err := ms.Delete(k); err != nil {
				t.Fatal(err)
			}
		case 3: // reopen the file store mid-sequence: state must survive
			fs, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []Store{fs, ms} {
			v, ok, err := s.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if ok != mok || (ok && string(v) != mv) {
				t.Fatalf("step %d: Get(%q) = %q,%v want %q,%v", i, k, v, ok, mv, mok)
			}
		}
	}
	// Final listing agreement.
	fl, _ := fs.List("")
	ml, _ := ms.List("")
	if !reflect.DeepEqual(fl, ml) {
		t.Fatalf("final listings differ: file %v mem %v", fl, ml)
	}
	if len(fl) != len(model) {
		t.Fatalf("listing has %d keys, model %d", len(fl), len(model))
	}
}

func TestFileStoreIgnoresAbandonedTemps(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("jobs/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between CreateTemp and rename.
	if err := os.WriteFile(filepath.Join(dir, "jobs", ".tmp-crashed"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"jobs/a"}) {
		t.Fatalf("List = %v, want [jobs/a]", keys)
	}
}

func TestStoreConcurrent(t *testing.T) {
	both(t, func(t *testing.T, s Store) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				k := fmt.Sprintf("jobs/g%d", g)
				for i := 0; i < 50; i++ {
					if err := s.Put(k, []byte(fmt.Sprintf("%d", i))); err != nil {
						t.Error(err)
						return
					}
					if _, ok, err := s.Get(k); err != nil || !ok {
						t.Errorf("Get(%q) = ok:%v err:%v", k, ok, err)
						return
					}
					if _, err := s.List("jobs/"); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestFileStoreConcurrentWriters: writers Put to their own keys and to
// one shared key while readers Get and List. Every Get returns one
// complete written value, and List never shows a temp file.
func TestFileStoreConcurrentWriters(t *testing.T) {
	fs, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers, puts, reps = 4, 25, 256
	// value is self-checking: its "<writer>.<put>;" unit repeated reps
	// times, so a torn or mixed value fails complete.
	value := func(w, i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%d.%d;", w, i)), reps)
	}
	complete := func(v []byte) bool {
		unit, _, ok := bytes.Cut(v, []byte(";"))
		return ok && bytes.Equal(v, bytes.Repeat(append(unit, ';'), reps))
	}
	keys := []string{"jobs/shared"}
	for w := 0; w < writers; w++ {
		keys = append(keys, fmt.Sprintf("runs/w%d", w))
	}
	known := map[string]bool{}
	for _, k := range keys {
		known[k] = true
	}

	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < puts; i++ {
				for _, k := range []string{keys[w+1], "jobs/shared"} {
					if err := fs.Put(k, value(w, i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range keys {
					v, ok, err := fs.Get(k)
					if err != nil {
						t.Error(err)
						return
					}
					if ok && !complete(v) {
						t.Errorf("Get(%q) returned an incomplete value of %d bytes", k, len(v))
						return
					}
				}
				listed, err := fs.List("")
				if err != nil {
					t.Error(err)
					return
				}
				for _, k := range listed {
					if !known[k] {
						t.Errorf("List returned %q", k)
						return
					}
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	for w := 0; w < writers; w++ {
		if v, _, _ := fs.Get(keys[w+1]); !bytes.Equal(v, value(w, puts-1)) {
			t.Errorf("%s does not hold its writer's last value", keys[w+1])
		}
	}
	if v, _, _ := fs.Get("jobs/shared"); !complete(v) {
		t.Error("the shared key does not hold a complete value")
	}
}
