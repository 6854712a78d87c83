package serve

import (
	"fmt"
	"sync"
	"testing"
)

func TestTableNewIDUnique(t *testing.T) {
	tab := NewTable()
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := tab.NewID()
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}

func TestTablePutGetDelete(t *testing.T) {
	tab := NewTable()
	h := &Hosted{ID: tab.NewID()}
	tab.Put(h)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	got, ok := tab.Get(h.ID)
	if !ok || got != h {
		t.Fatalf("Get(%q) = %v, %v", h.ID, got, ok)
	}
	if _, ok := tab.Get("s-nope"); ok {
		t.Fatal("Get of unknown ID succeeded")
	}
	del, ok := tab.Delete(h.ID)
	if !ok || del != h {
		t.Fatalf("Delete(%q) = %v, %v", h.ID, del, ok)
	}
	if _, ok := tab.Delete(h.ID); ok {
		t.Fatal("second Delete succeeded")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len after delete = %d, want 0", tab.Len())
	}
}

// TestTableConcurrent exercises the stripes under the race detector.
func TestTableConcurrent(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("s-%d-%d", g, i)
				tab.Put(&Hosted{ID: id})
				if _, ok := tab.Get(id); !ok {
					t.Errorf("lost %q", id)
				}
				if i%2 == 0 {
					tab.Delete(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := tab.Len(), 8*50; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got := len(tab.Snapshot()); got != tab.Len() {
		t.Fatalf("Snapshot len = %d, Len = %d", got, tab.Len())
	}
}
