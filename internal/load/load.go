// Package load generates deterministic open-loop serving traffic for the
// apps/serve workload: Poisson arrivals at a configurable offered rate,
// Zipfian key skew over an arbitrarily large keyspace, a diurnal load
// curve, and scheduled hotspot flips that shift the skew center mid-run.
//
// The generator is open-loop: arrival times come from the traffic model
// alone and never depend on how fast the system under test answers, so a
// slow configuration accumulates queueing delay instead of quietly
// throttling its own offered load (the closed-loop "coordinated omission"
// failure mode). It is seeded and streaming — Next() produces one request
// at a time from a private splitmix64 stream, so the same Params always
// yield the same request sequence, independent of how the caller schedules
// or parallelizes runs.
//
// Skew is per-frontend: frontend f's rank-r key is (center + f*Keys/Frontends
// + r) mod Keys, so with center 0 each frontend's hot set sits in its own
// block of the keyspace (high locality under block placement), and a hotspot
// flip that moves the center relocates every frontend's hot set into a block
// owned by another node — per-node load stays balanced while locality
// collapses, which is exactly the event an adaptive placement policy exists
// to repair.
package load

import (
	"fmt"
	"math"
	"sort"
)

// Flip is one scheduled hotspot flip: at AtFrac of the horizon the Zipf
// center moves by Shift of the keyspace.
type Flip struct {
	AtFrac float64 // when, as a fraction of Horizon in [0, 1]
	Shift  float64 // how far the skew center moves, as a fraction of Keys
}

// Params configures a traffic stream. Times are virtual instructions (the
// simulator's clock unit); callers converting from wall-clock rates divide
// by the machine model's instructions per second.
type Params struct {
	Seed      uint64
	Horizon   int64   // arrivals stop after this virtual time
	MeanGap   float64 // mean inter-arrival time at peak rate (> 0)
	Keys      int     // keyspace size (millions are fine: setup is one O(Keys) pass)
	Theta     float64 // Zipf skew in [0, 1): 0 uniform, 0.99 YCSB-style hot
	Frontends int     // arrival points; each has its own skew center
	OpsPerReq int     // keyed operations per request (<= 64)
	RMWFrac   float64 // probability an operation is a read-modify-write
	Diurnal   float64 // trough depth in [0, 1): rate dips to (1-Diurnal)*peak mid-horizon
	Flips     []Flip  // hotspot flips, applied in AtFrac order
}

// Req is one generated request.
type Req struct {
	ID    int    // sequential from 0
	At    int64  // arrival time (non-decreasing)
	Front int    // arriving frontend in [0, Frontends)
	Keys  []int  // target key per operation
	RMW   uint64 // bit i set: operation i is a read-modify-write
}

// Gen is a streaming request generator. Not safe for concurrent use; give
// every run its own instance.
type Gen struct {
	p      Params
	rng    rng
	zipf   zipf
	t      float64
	id     int
	center int
	flips  []resolvedFlip
	next   int // index of the next unapplied flip
	// keys is the unused rest of the block Next carves each request's Keys
	// from.
	keys []int
}

// keyBlock is how many requests' Keys one allocation holds. A block lives
// as long as any request carved from it. serve.Run keeps a request only
// while an attempt of it can still run, and gives a finished request it
// still keeps its own copy of the keys, so a block is freed once the
// requests carved from it finish.
const keyBlock = 4096

type resolvedFlip struct {
	at    int64
	shift int
}

// New validates p and builds a generator. Invalid parameters panic: the
// callers are experiment harnesses, and a misconfigured workload must fail
// loudly, not produce a quietly empty table.
func New(p Params) *Gen {
	if p.Keys <= 0 || p.Frontends <= 0 || p.OpsPerReq <= 0 || p.OpsPerReq > 64 {
		panic(fmt.Sprintf("load: bad shape: Keys=%d Frontends=%d OpsPerReq=%d",
			p.Keys, p.Frontends, p.OpsPerReq))
	}
	if p.Horizon <= 0 || p.MeanGap <= 0 {
		panic(fmt.Sprintf("load: bad timing: Horizon=%d MeanGap=%g", p.Horizon, p.MeanGap))
	}
	if p.Theta < 0 || p.Theta >= 1 {
		panic(fmt.Sprintf("load: Theta=%g outside [0, 1)", p.Theta))
	}
	if p.RMWFrac < 0 || p.RMWFrac > 1 || p.Diurnal < 0 || p.Diurnal >= 1 {
		panic(fmt.Sprintf("load: bad fractions: RMWFrac=%g Diurnal=%g", p.RMWFrac, p.Diurnal))
	}
	g := &Gen{p: p, rng: rng{s: p.Seed}, zipf: newZipf(p.Keys, p.Theta)}
	for _, f := range p.Flips {
		if f.AtFrac < 0 || f.AtFrac > 1 {
			panic(fmt.Sprintf("load: flip AtFrac=%g outside [0, 1]", f.AtFrac))
		}
		shift := int(f.Shift*float64(p.Keys)) % p.Keys
		if shift < 0 {
			shift += p.Keys
		}
		g.flips = append(g.flips, resolvedFlip{
			at:    int64(f.AtFrac * float64(p.Horizon)),
			shift: shift,
		})
	}
	sort.SliceStable(g.flips, func(i, j int) bool { return g.flips[i].at < g.flips[j].at })
	return g
}

// rate returns the instantaneous rate as a fraction of peak (the thinning
// acceptance probability for the nonhomogeneous Poisson process): a cosine
// diurnal curve at peak at both ends of the horizon with the trough in the
// middle.
func (g *Gen) rate(t float64) float64 {
	return 1 - g.p.Diurnal*(0.5-0.5*math.Cos(2*math.Pi*t/float64(g.p.Horizon)))
}

// Next returns the next request, or ok=false once arrivals pass the horizon.
func (g *Gen) Next() (Req, bool) {
	for {
		g.t += g.rng.exp(g.p.MeanGap)
		if g.t > float64(g.p.Horizon) {
			return Req{}, false
		}
		if g.p.Diurnal <= 0 || g.rng.float() < g.rate(g.t) {
			break
		}
	}
	at := int64(g.t)
	for g.next < len(g.flips) && at >= g.flips[g.next].at {
		g.center = (g.center + g.flips[g.next].shift) % g.p.Keys
		g.next++
	}
	f := g.rng.intn(g.p.Frontends)
	base := g.center + f*(g.p.Keys/g.p.Frontends)
	ops := g.p.OpsPerReq
	if len(g.keys) < ops {
		g.keys = make([]int, keyBlock*ops)
	}
	// The capacity ends at the request's own keys, so an append to one
	// request's Keys reallocates instead of overwriting the next request's.
	keys := g.keys[:ops:ops]
	g.keys = g.keys[ops:]
	var rmw uint64
	for i := range keys {
		keys[i] = (base + g.zipf.sample(g.rng.float())) % g.p.Keys
		if g.rng.float() < g.p.RMWFrac {
			rmw |= 1 << uint(i)
		}
	}
	rq := Req{ID: g.id, At: at, Front: f, Keys: keys, RMW: rmw}
	g.id++
	return rq, true
}

// zipf samples ranks from a bounded Zipfian distribution with exponent
// theta over [0, n), using the Gray et al. closed-form approximation (the
// YCSB generator): an O(n) zeta precomputation, then O(1) per sample.
type zipf struct {
	n     int
	theta float64
	zetan float64
	eta   float64
	alpha float64
	half  float64 // 0.5^theta
}

func newZipf(n int, theta float64) zipf {
	z := zipf{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += math.Pow(float64(i), -theta)
	}
	z.zetan = zetan
	z.alpha = 1 / (1 - theta)
	z.half = math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - (1+z.half)/zetan)
	return z
}

// sample maps a uniform u in [0, 1) to a rank: 0 is the hottest.
func (z *zipf) sample(u float64) int {
	if z.theta == 0 {
		r := int(u * float64(z.n))
		if r >= z.n {
			r = z.n - 1
		}
		return r
	}
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r < 0 {
		r = 0
	}
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// rng is a splitmix64 stream: tiny, seeded, and unentangled from any global
// or library generator, so request streams are reproducible byte for byte.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n). The modulo bias is far below
// anything a workload distribution could notice.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp returns an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }
