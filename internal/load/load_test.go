package load

import (
	"reflect"
	"runtime"
	"testing"
)

func testParams() Params {
	return Params{
		Seed:      1995,
		Horizon:   1_000_000,
		MeanGap:   500,
		Keys:      4096,
		Theta:     0.99,
		Frontends: 8,
		OpsPerReq: 4,
		RMWFrac:   0.25,
	}
}

// drain pulls every request out of a fresh generator.
func drain(p Params) []Req {
	g := New(p)
	var out []Req
	for {
		rq, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, rq)
	}
}

func TestDeterministic(t *testing.T) {
	p := testParams()
	p.Diurnal = 0.5
	p.Flips = []Flip{{AtFrac: 0.5, Shift: 0.5}}
	a, b := drain(p), drain(p)
	if len(a) == 0 {
		t.Fatal("no requests generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same Params produced different request streams")
	}
}

func TestStreamShape(t *testing.T) {
	p := testParams()
	reqs := drain(p)
	want := float64(p.Horizon) / p.MeanGap
	if n := float64(len(reqs)); n < 0.9*want || n > 1.1*want {
		t.Fatalf("got %d requests, want about %.0f (open-loop Poisson at peak rate)", len(reqs), want)
	}
	var last int64 = -1
	for i, rq := range reqs {
		if rq.ID != i {
			t.Fatalf("request %d has ID %d", i, rq.ID)
		}
		if rq.At < last || rq.At > p.Horizon {
			t.Fatalf("request %d arrival %d out of order or past horizon", i, rq.At)
		}
		last = rq.At
		if rq.Front < 0 || rq.Front >= p.Frontends || len(rq.Keys) != p.OpsPerReq {
			t.Fatalf("request %d malformed: front=%d keys=%d", i, rq.Front, len(rq.Keys))
		}
		for _, k := range rq.Keys {
			if k < 0 || k >= p.Keys {
				t.Fatalf("request %d key %d outside keyspace", i, k)
			}
		}
	}
}

// TestZipfSkew checks the sampler over a large keyspace (millions of ranks:
// the O(Keys) zeta setup must stay cheap) against the defining property of
// the distribution: rank popularity decays, and the head carries
// disproportionate mass.
func TestZipfSkew(t *testing.T) {
	z := newZipf(2_000_000, 0.99)
	r := rng{s: 42}
	const n = 200_000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[z.sample(r.float())]++
	}
	if counts[0] < counts[10] || counts[10] < counts[1000] {
		t.Fatalf("rank popularity not decaying: c0=%d c10=%d c1000=%d",
			counts[0], counts[10], counts[1000])
	}
	if frac := float64(counts[0]) / n; frac < 0.03 {
		t.Fatalf("hottest rank carries only %.3f of the mass; expected a heavy head", frac)
	}
	head := 0
	for rank, c := range counts {
		if rank < 100 {
			head += c
		}
	}
	if frac := float64(head) / n; frac < 0.3 {
		t.Fatalf("top-100 ranks carry only %.3f of 2M-key mass", frac)
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := newZipf(1000, 0)
	r := rng{s: 9}
	lo := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if z.sample(r.float()) < 500 {
			lo++
		}
	}
	if frac := float64(lo) / n; frac < 0.47 || frac > 0.53 {
		t.Fatalf("theta=0 lower-half mass %.3f, want ~0.5", frac)
	}
}

// TestHotspotFlip: before the flip, frontend 0's traffic concentrates in its
// own block of the keyspace; after a half-keyspace flip it concentrates in
// the block half a keyspace away.
func TestHotspotFlip(t *testing.T) {
	p := testParams()
	p.Flips = []Flip{{AtFrac: 0.5, Shift: 0.5}}
	flipAt := p.Horizon / 2
	block := p.Keys / p.Frontends
	inOwn := func(k int) bool { return k < block }

	var beforeOwn, beforeN, afterOwn, afterN int
	for _, rq := range drain(p) {
		if rq.Front != 0 {
			continue
		}
		for _, k := range rq.Keys {
			if rq.At < flipAt {
				beforeN++
				if inOwn(k) {
					beforeOwn++
				}
			} else {
				afterN++
				if inOwn(k) {
					afterOwn++
				}
			}
		}
	}
	if beforeN == 0 || afterN == 0 {
		t.Fatal("no frontend-0 traffic on one side of the flip")
	}
	bf := float64(beforeOwn) / float64(beforeN)
	af := float64(afterOwn) / float64(afterN)
	if bf < 0.5 {
		t.Fatalf("pre-flip own-block fraction %.3f; skew should concentrate traffic at home", bf)
	}
	if af > 0.2 {
		t.Fatalf("post-flip own-block fraction %.3f; the hot set should have moved away", af)
	}
}

// TestDiurnal: with a deep trough, arrivals in the middle tenth of the
// horizon are markedly fewer than in the first tenth.
func TestDiurnal(t *testing.T) {
	p := testParams()
	p.Diurnal = 0.8
	var early, mid int
	for _, rq := range drain(p) {
		switch {
		case rq.At < p.Horizon/10:
			early++
		case rq.At >= p.Horizon*45/100 && rq.At < p.Horizon*55/100:
			mid++
		}
	}
	if early == 0 || mid == 0 {
		t.Fatalf("empty windows: early=%d mid=%d", early, mid)
	}
	if ratio := float64(mid) / float64(early); ratio > 0.5 {
		t.Fatalf("trough/peak arrival ratio %.2f, want < 0.5 at Diurnal=0.8", ratio)
	}
}

func TestRMWFraction(t *testing.T) {
	p := testParams()
	p.RMWFrac = 0.25
	var rmw, ops int
	for _, rq := range drain(p) {
		for i := range rq.Keys {
			ops++
			if rq.RMW&(1<<uint(i)) != 0 {
				rmw++
			}
		}
	}
	if frac := float64(rmw) / float64(ops); frac < 0.2 || frac > 0.3 {
		t.Fatalf("rmw fraction %.3f, want ~0.25", frac)
	}
}

func TestBadParamsPanic(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Keys = 0 },
		func(p *Params) { p.OpsPerReq = 65 },
		func(p *Params) { p.MeanGap = 0 },
		func(p *Params) { p.Theta = 1 },
		func(p *Params) { p.Diurnal = 1 },
		func(p *Params) { p.Flips = []Flip{{AtFrac: 2}} },
	}
	for i, mutate := range bad {
		p := testParams()
		mutate(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad params %d did not panic", i)
				}
			}()
			New(p)
		}()
	}
}

// TestNextKeysFromBlock: Next carves each request's Keys from a block it
// shares with thousands of other requests, so pulling requests allocates
// fewer than 0.01 times per request, amortized. Keys is capped at its
// length, so appending to one request's keys leaves the next request's
// untouched.
func TestNextKeysFromBlock(t *testing.T) {
	p := testParams()
	p.Horizon = 1 << 40
	g := New(p)
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, ok := g.Next(); !ok {
			t.Fatalf("stream ended after %d requests", i)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per >= 0.01 {
		t.Fatalf("%.4f allocations per Next, want fewer than 0.01", per)
	}

	a, _ := g.Next()
	b, _ := g.Next()
	if cap(a.Keys) != len(a.Keys) {
		t.Fatalf("Keys has capacity %d beyond its %d keys", cap(a.Keys), len(a.Keys))
	}
	want := append([]int(nil), b.Keys...)
	_ = append(a.Keys, -1)
	if !reflect.DeepEqual(b.Keys, want) {
		t.Fatalf("appending to one request's keys changed the next request's: %v, want %v", b.Keys, want)
	}
}
