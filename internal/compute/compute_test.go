package compute

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 7} {
		c := New(threads)
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			hits := make([]int64, n)
			c.For(n, func(i int, _ *Arena) {
				atomic.AddInt64(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d ran %d times", threads, n, i, h)
				}
			}
		}
		c.Close()
	}
}

func TestForChunksCoversEveryIndexOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 7} {
		c := New(threads)
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			hits := make([]int64, n)
			c.For(n, func(i int, _ *Arena) { hits[i] = 0 })
			c.ForChunks(n, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("threads=%d n=%d: empty chunk [%d, %d)", threads, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d covered %d times", threads, n, i, h)
				}
			}
		}
		c.Close()
	}
}

func TestForChunksMoreThreadsThanWork(t *testing.T) {
	c := New(8)
	defer c.Close()
	var calls int64
	c.ForChunks(3, func(lo, hi int) {
		atomic.AddInt64(&calls, 1)
		if hi-lo != 1 {
			t.Errorf("chunk [%d, %d) not a single element", lo, hi)
		}
	})
	if calls != 3 {
		t.Fatalf("ForChunks(3) on 8 threads made %d calls, want 3", calls)
	}
}

func TestForDistinctArenasPerWorker(t *testing.T) {
	c := New(4)
	defer c.Close()
	// Each invocation bump-allocates from its worker's arena; two workers
	// must never share a backing buffer (that would be a data race). We
	// detect sharing by writing a sentinel tied to the index and checking it
	// after the barrier: with a shared arena, concurrent writers would
	// clobber each other at least occasionally over many rounds.
	for round := 0; round < 50; round++ {
		n := 64
		out := make([]float64, n)
		c.For(n, func(i int, a *Arena) {
			s := a.Floats(128)
			for j := range s {
				s[j] = float64(i)
			}
			out[i] = s[64]
		})
		for i, v := range out {
			if v != float64(i) {
				t.Fatalf("round %d: index %d read %v from its scratch, want %d", round, i, v, i)
			}
		}
	}
}

func TestSerialRunsInline(t *testing.T) {
	c := Serial()
	if c.Threads() != 1 {
		t.Fatalf("Serial().Threads() = %d, want 1", c.Threads())
	}
	seen := make([]int, 0, 5)
	c.For(5, func(i int, _ *Arena) { seen = append(seen, i) })
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial For out of order: %v", seen)
		}
	}
}

func TestGetCachesByResolvedCount(t *testing.T) {
	if Get(3) != Get(3) {
		t.Fatal("Get(3) returned distinct contexts")
	}
	if Get(1) != Serial() {
		t.Fatal("Get(1) and Serial() differ")
	}
	if Get(0).Threads() < 1 {
		t.Fatalf("Get(0) resolved to %d threads", Get(0).Threads())
	}
}

func TestNewResolvesNonPositive(t *testing.T) {
	c := New(0)
	defer c.Close()
	if c.Threads() < 1 {
		t.Fatalf("New(0) resolved to %d threads", c.Threads())
	}
}

func TestArenaReuseAndGrowth(t *testing.T) {
	var a Arena
	s1 := a.Floats(100)
	if len(s1) != 100 {
		t.Fatalf("Floats(100) returned len %d", len(s1))
	}
	// First cycle overflows (empty backing buffer), second fits.
	a.Reset()
	if a.Cap() < 100 {
		t.Fatalf("cap %d after Reset, want >= 100", a.Cap())
	}
	s2 := a.Floats(60)
	s3 := a.Floats(40)
	if &s2[0] == &s3[0] {
		t.Fatal("two allocations in one cycle alias")
	}
	a.Reset()
	s4 := a.Floats(60)
	if &s2[0] != &s4[0] {
		t.Fatal("arena did not reuse its backing buffer after Reset")
	}
	// Allocations have full-capacity slices clipped so an append cannot
	// silently bleed into a neighbour.
	if cap(s4) != 60 {
		t.Fatalf("scratch cap %d, want exactly 60", cap(s4))
	}
}

func TestArenaZeroFloats(t *testing.T) {
	var a Arena
	s := a.Floats(16)
	for i := range s {
		s[i] = 7
	}
	a.Reset()
	z := a.ZeroFloats(16)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("ZeroFloats[%d] = %v", i, v)
		}
	}
}

func TestArenaGrowthAccumulatesWithinCycle(t *testing.T) {
	var a Arena
	a.Floats(30)
	a.Floats(50)
	a.Reset()
	if a.Cap() < 80 {
		t.Fatalf("cap %d after overflowing cycle of 80, want >= 80", a.Cap())
	}
	s1 := a.Floats(30)
	s2 := a.Floats(50)
	if len(s1) != 30 || len(s2) != 50 {
		t.Fatal("bad lengths after growth")
	}
}

func TestCtxSingleDriverGuardPanics(t *testing.T) {
	c := New(2)
	defer c.Close()
	started := make(chan struct{})
	unblock := make(chan struct{})
	go c.For(1, func(i int, _ *Arena) {
		close(started)
		<-unblock
	})
	<-started
	defer close(unblock)
	defer func() {
		if recover() == nil {
			t.Error("second concurrent driver did not panic")
		}
	}()
	c.For(1, func(i int, _ *Arena) {})
}

func TestCtxSequentialDrivesAllowed(t *testing.T) {
	c := New(3)
	defer c.Close()
	// Repeated sequential drives — including from different goroutines, one
	// at a time — are fine; only overlap is a bug.
	for k := 0; k < 4; k++ {
		c.For(8, func(i int, _ *Arena) {})
		c.ForChunks(8, func(lo, hi int) {})
	}
	done := make(chan struct{})
	go func() {
		c.For(8, func(i int, _ *Arena) {})
		close(done)
	}()
	<-done
	c.ForChunks(8, func(lo, hi int) {})
}

func TestBufferReusesRecycledStorage(t *testing.T) {
	c := New(1)
	defer c.Close()
	a := c.Buffer(100)
	if len(a) != 100 {
		t.Fatalf("Buffer(100) has length %d", len(a))
	}
	c.Recycle(a)
	// A request within [cap/2, cap] reuses the buffer at full capacity.
	b := c.Buffer(60)
	if len(b) != 60 || &b[0] != &a[0] {
		t.Fatal("Buffer(60) did not reuse the recycled 100-element buffer")
	}
	c.Recycle(b)
	// A request under half the capacity does not pin the large buffer.
	if s := c.Buffer(10); &s[0] == &a[0] {
		t.Fatal("Buffer(10) took a 100-element buffer")
	}
	// Best fit: the smallest adequate buffer wins.
	small := c.Buffer(70)
	c.Recycle(small)
	if got := c.Buffer(55); &got[0] != &small[0] {
		t.Fatal("Buffer(55) did not pick the best-fitting buffer")
	}
}

func TestRecycleBoundsTheFreeList(t *testing.T) {
	c := New(1)
	for i := 0; i < 3*maxFreeBuffers; i++ {
		c.Recycle(make([]float64, 8))
	}
	if n := len(c.pool.free); n != maxFreeBuffers {
		t.Fatalf("free list holds %d buffers, bound is %d", n, maxFreeBuffers)
	}
	c.Recycle(nil) // empty slices are ignored
	c.Close()
	if n := len(c.pool.free); n != 0 {
		t.Fatalf("Close left %d free buffers", n)
	}
}
