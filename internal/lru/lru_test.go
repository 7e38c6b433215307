package lru

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// op is one scripted call. For "add", want is the resident value Add
// must return and evicted its eviction report; for "get", want is the
// value Get must return ("" for a miss).
type op struct {
	kind    string // "add", "get", "clear"
	key     string
	val     string
	want    string
	evicted bool
}

// keys returns the resident keys, most recently used first.
func (c *Cache[K, V]) keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ks []K
	for el := c.order.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*entry[K, V]).key)
	}
	return ks
}

func TestCache(t *testing.T) {
	add := func(k, v, want string, evicted bool) op { return op{"add", k, v, want, evicted} }
	get := func(k, want string) op { return op{kind: "get", key: k, want: want} }
	clr := op{kind: "clear"}
	cases := []struct {
		name string
		cap  int
		ops  []op
		keys []string // resident keys afterwards, most recent first
	}{
		{"empty", 2, nil, nil},
		{"under cap", 3, []op{add("a", "1", "1", false), add("b", "2", "2", false)}, []string{"b", "a"}},
		{"cap bound evicts oldest first", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false),
			add("c", "3", "3", true), add("d", "4", "4", true),
			get("a", ""), get("b", ""),
		}, []string{"d", "c"}},
		{"cap one", 1, []op{add("a", "1", "1", false), add("b", "2", "2", true), get("a", "")}, []string{"b"}},
		{"get promotes", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false),
			get("a", "1"), add("c", "3", "3", true),
		}, []string{"c", "a"}},
		{"add promotes", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false),
			add("a", "9", "1", false), add("c", "3", "3", true),
		}, []string{"c", "a"}},
		{"first insert wins", 2, []op{
			add("a", "1", "1", false), add("a", "2", "1", false), get("a", "1"),
		}, []string{"a"}},
		{"miss does not insert", 2, []op{get("a", ""), add("b", "2", "2", false)}, []string{"b"}},
		{"clear empties and resets", 2, []op{
			add("a", "1", "1", false), add("b", "2", "2", false), clr,
			get("a", ""), add("c", "3", "3", false), add("a", "4", "4", false),
		}, []string{"a", "c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, string](tc.cap)
			for i, o := range tc.ops {
				switch o.kind {
				case "add":
					got, ev := c.Add(o.key, o.val)
					if got != o.want || ev != o.evicted {
						t.Fatalf("op %d: Add(%q, %q) = %q, %v; want %q, %v", i, o.key, o.val, got, ev, o.want, o.evicted)
					}
				case "get":
					got, ok := c.Get(o.key)
					if got != o.want || ok != (o.want != "") {
						t.Fatalf("op %d: Get(%q) = %q, %v; want %q", i, o.key, got, ok, o.want)
					}
				case "clear":
					c.Clear()
				}
				if n := c.Len(); n > tc.cap {
					t.Fatalf("op %d: Len() = %d over cap %d", i, n, tc.cap)
				}
			}
			if got := c.keys(); !reflect.DeepEqual(got, tc.keys) {
				t.Errorf("resident keys %q, want %q", got, tc.keys)
			}
			if c.Len() != len(tc.keys) {
				t.Errorf("Len() = %d, want %d", c.Len(), len(tc.keys))
			}
			if len(c.entries) != len(tc.keys) {
				t.Errorf("index holds %d keys, list %d", len(c.entries), len(tc.keys))
			}
			for _, k := range tc.keys {
				if !c.Contains(k) {
					t.Errorf("Contains(%q) = false for a resident key", k)
				}
			}
			if got := c.keys(); !reflect.DeepEqual(got, tc.keys) {
				t.Errorf("Contains changed recency: %q, want %q", got, tc.keys)
			}
		})
	}
}

func TestNewRejectsZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New[int, int](0)
}

// TestConcurrentFirstInsertWins: goroutines racing Get-then-Add on
// shared keys all end up with the first inserted value, and the bound
// holds throughout.
func TestConcurrentFirstInsertWins(t *testing.T) {
	const workers, keys = 8, 16
	c := New[string, *int](keys)
	got := make([][]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprint(k)
				v, ok := c.Get(key)
				if !ok {
					v, _ = c.Add(key, new(int))
				}
				got[w] = append(got[w], v)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := range got[w] {
			if got[w][k] != got[0][k] {
				t.Fatalf("worker %d got a different value for key %d than worker 0", w, k)
			}
		}
	}
	if c.Len() != keys {
		t.Errorf("Len() = %d, want %d", c.Len(), keys)
	}
}
