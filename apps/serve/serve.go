// Package serve is the open-loop serving workload (Table 9): an RPC-style
// request/reply application driven by internal/load's seeded traffic
// generator instead of a fixed input, evaluated on tail latency and SLO
// attainment instead of speedup.
//
// Each node hosts one frontend object; millions of keyed KV objects are
// block-placed across the machine (key k lives on node k*Nodes/Keys). A
// request arrives at its frontend at the modeled arrival time — scheduled as
// an engine event, so a backed-up frontend queues requests rather than
// slowing the arrival process (open loop) — and fans its keyed operations
// out through the ordinary method-invocation machinery: local keys run on
// the speculative stack, remote keys become request messages whose read/rmw
// bodies the owner can run as wrappers straight from the buffer. The
// frontend joins all replies and stamps the request done.
//
// The load generator centers each frontend's Zipf hot set inside its own
// block of the keyspace, so before a hotspot flip most traffic is local;
// the flip relocates every frontend's hot set into a block owned by another
// node. Offered load that a mostly-local system absorbs easily then exceeds
// the mostly-remote system's capacity, queueing delay accumulates, and the
// tail explodes — unless an adaptive migration policy moves the now-hot
// objects to their new requesters. That recovery (or its absence) is what
// Table 9 measures.
package serve

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/load"
	"repro/internal/machine"
	policy "repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// KV is one keyed object: the unit of placement and migration. ids/seen
// record the request-operation ids of applied read-modify-writes when the
// deduplicating (retry-safe) RMW variant is in use: a retried operation
// whose first attempt already applied is answered without re-applying, which
// is what makes hedged request retries exactly-once. Applied counts every
// applied RMW, so the invariant Val == Applied holds at all times and is
// checked at end of run.
//
// The id log is a sliding window, not a full history: an unbounded log
// would make checkpoint snapshots — and the whole-store restore after a
// crash — grow linearly with run length, slowly stretching every outage. An
// op id encodes its request id (a global arrival sequence number), so id
// distance is a clock: applying a fresh RMW evicts ids more than
// dedupHorizon requests older than it. A duplicate can only arrive between
// a reply loss and the first successful retry — bounded by the crash window
// plus a few capped backoffs — while dedupHorizon spans millions of cycles
// of arrivals at any configured load, so truncation never forgets an id
// that could still be retried. dedupWindow is a hard size backstop on top.
type KV struct {
	Val     int64
	Applied int64
	ids     []int64 // most recent applied ids, oldest first
	seen    map[int64]struct{}
}

// dedupWindow bounds the per-key applied-id log (and so the snapshot size);
// dedupHorizon is the eviction age in request-id distance (see KV).
// An op id is reqID*opsPerID+opIndex, so opsPerID converts request-id
// distance into op-id distance.
const (
	opsPerID     = 64
	dedupWindow  = 64
	dedupHorizon = 2048 * opsPerID
)

// CheckpointWords serializes the KV's durable state — the value, the
// applied count, and the recent-id window — for the checkpoint protocol
// (core.Checkpointable). Bounded by dedupWindow regardless of run length.
func (kv *KV) CheckpointWords() []core.Word {
	w := make([]core.Word, 2+len(kv.ids))
	w[0] = core.IntW(kv.Val)
	w[1] = core.IntW(kv.Applied)
	for i, id := range kv.ids {
		w[i+2] = core.IntW(id)
	}
	return w
}

// RestoreWords re-installs a snapshot in place after a crash, reusing the
// id log and its dedup map.
func (kv *KV) RestoreWords(w []core.Word) {
	kv.Val = w[0].Int()
	kv.Applied = w[1].Int()
	kv.ids = kv.ids[:0]
	if kv.seen == nil {
		kv.seen = make(map[int64]struct{}, len(w)-2)
	} else {
		clear(kv.seen)
	}
	for _, x := range w[2:] {
		id := x.Int()
		kv.ids = append(kv.ids, id)
		kv.seen[id] = struct{}{}
	}
}

// Front is a per-node frontend: the arrival point for requests. Its only
// state is the shared workload harness, which owns the request window and
// the latency accounting.
type Front struct {
	app *App
}

// CheckpointWords makes frontends checkpointable with an empty snapshot:
// their only state is the host-side harness pointer, which survives crashes,
// but without a restore a crashed frontend would stay lost forever and every
// retry against it would park unserved.
func (f *Front) CheckpointWords() []core.Word { return nil }

// RestoreWords is a no-op: the harness pointer never left.
func (f *Front) RestoreWords([]core.Word) {}

// App is the run-wide harness shared by every frontend: the window of
// requests that can still run, the key->object table, and the completion
// accounting. Method bodies reach it through their frontend's state, never
// through the runtime config, so bodies stay analyzable.
type App struct {
	// win also dedups hedged completions: with retries a request may be in
	// flight twice, and only the first completion counts (latency is always
	// measured from the original arrival). dedup selects the deduplicating
	// RMW variant for the request bodies.
	win   window
	refs  []core.Ref
	dedup bool
	// par is set when the engine runs sharded; completions then defer their
	// bookkeeping to the ordered-commit point.
	par bool

	hist   stats.LatencyHist
	slo    int64
	sloOK  int64
	done   int64
	tracer core.Tracer
}

// complete ends one attempt of request id, which arrived at at, on its
// frontend's clock. Only the request's first completion counts; those of
// hedged duplicate attempts are ignored. Every field the bookkeeping touches
// (the window, hist, sloOK, done, the trace ring) is shared across
// frontends, and under the parallel engine frontends on different shards
// complete requests concurrently, so there it runs at the engine's
// ordered-commit point, with the clock stamp captured here, at event time,
// to measure the same latency the serial engine would. On the serial engine
// it runs in place.
func (a *App) complete(n *core.NodeRT, id int, at int64) {
	now := int64(n.Sim.Clock)
	if a.par {
		node := n.ID
		n.Sim.Ordered(func() { a.finish(node, id, at, now) })
		return
	}
	a.finish(n.ID, id, at, now)
}

// finish is complete's bookkeeping.
func (a *App) finish(node, id int, at, now int64) {
	if !a.win.end(id) {
		return
	}
	a.hist.Add(now - at)
	if now-at <= a.slo {
		a.sloOK++
	}
	a.done++
	if a.tracer != nil {
		a.tracer.Record(node, instr.Instr(now), uint8(trace.KReqDone), "serve.request", int64(id))
	}
}

// Methods bundles the serving program.
type Methods struct {
	Prog    *core.Program
	Request *core.Method

	read *core.Method
	rmw  *core.Method
	rmwd *core.Method // deduplicating, durable variant used under retries

	readW, rmwW instr.Instr
}

// Build registers the methods with the given per-operation body costs.
func Build(readWork, rmwWork instr.Instr) *Methods {
	p := core.NewProgram()
	m := &Methods{Prog: p, readW: readWork, rmwW: rmwWork}

	// read(): return the key's value.
	m.read = &core.Method{Name: "serve.read"}
	m.read.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		kv := fr.Node.State(fr.Self).(*KV)
		rt.Work(fr, m.readW)
		rt.Reply(fr, core.IntW(kv.Val))
		return core.Done
	}
	p.Add(m.read)

	// rmw(delta): read-modify-write the key's value.
	m.rmw = &core.Method{Name: "serve.rmw", NArgs: 1}
	m.rmw.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		kv := fr.Node.State(fr.Self).(*KV)
		kv.Val += fr.Arg(0).Int()
		rt.Work(fr, m.rmwW)
		rt.Reply(fr, core.IntW(kv.Val))
		return core.Done
	}
	p.Add(m.rmw)

	// rmwd(delta, id): the retry-safe read-modify-write. Identical to rmw
	// except the mutation is (a) deduplicated by operation id, so a hedged
	// retry whose first attempt already applied answers without re-applying,
	// and (b) Durable: under checkpointing its reply is group-committed —
	// held until the backup acks a covering snapshot — so no client observes
	// a value a crash can roll back. Together these make RMWs exactly-once
	// end to end under crashes, retries, and restores.
	m.rmwd = &core.Method{Name: "serve.rmwd", NArgs: 2, Durable: true}
	m.rmwd.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		kv := fr.Node.State(fr.Self).(*KV)
		id := fr.Arg(1).Int()
		if kv.seen == nil {
			kv.seen = make(map[int64]struct{})
		}
		if _, dup := kv.seen[id]; !dup {
			kv.Val += fr.Arg(0).Int()
			kv.Applied++
			kv.seen[id] = struct{}{}
			kv.ids = append(kv.ids, id)
			for len(kv.ids) > dedupWindow || (len(kv.ids) > 0 && kv.ids[0] < id-dedupHorizon) {
				delete(kv.seen, kv.ids[0])
				kv.ids = kv.ids[1:]
			}
		}
		rt.Work(fr, m.rmwW)
		rt.Reply(fr, core.IntW(kv.Val))
		return core.Done
	}
	p.Add(m.rmwd)

	// request(id): fan the request's keyed operations out, join the
	// replies, stamp the request complete. The body looks its request up
	// in the window on every resume, since the slot may have moved, and
	// complete is its last use: after it, the request may be gone.
	m.Request = &core.Method{Name: "serve.request", NArgs: 1, NLocals: 1,
		MayBlockLocal: true, Calls: []*core.Method{m.read, m.rmw, m.rmwd}}
	m.Request.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		f := fr.Node.State(fr.Self).(*Front)
		a := f.app
		id := int(fr.Arg(0).Int())
		rq := a.win.req(id)
		switch fr.PC {
		case 0:
			fr.PC = 1
			fallthrough
		case 1:
			for {
				i := int(fr.Local(0).Int())
				if i >= len(rq.Keys) {
					break
				}
				fr.SetLocal(0, core.IntW(int64(i+1)))
				ref := a.refs[rq.Keys[i]]
				var st core.CallStatus
				switch {
				case rq.RMW&(1<<uint(i)) == 0:
					st = rt.Invoke(fr, m.read, ref, core.JoinDiscard)
				case a.dedup:
					// Operation id: request id and operation index packed in
					// one word, unique across all retries of the same op.
					st = rt.Invoke(fr, m.rmwd, ref, core.JoinDiscard,
						core.IntW(1), core.IntW(int64(rq.ID)*opsPerID+int64(i)))
				default:
					st = rt.Invoke(fr, m.rmw, ref, core.JoinDiscard, core.IntW(1))
				}
				if st == core.NeedUnwind {
					return rt.Unwind(fr)
				}
			}
			fr.PC = 2
			fallthrough
		case 2:
			if !rt.TouchJoin(fr) {
				return core.Unwound
			}
			a.complete(fr.Node, id, rq.At)
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("serve.request: bad pc")
	}
	p.Add(m.Request)
	return m
}

// Params configures one serving run.
type Params struct {
	Nodes int
	Keys  int // must be a multiple of Nodes (block placement)
	// Load drives arrivals; its Keys and Frontends fields are overridden
	// with Keys and Nodes.
	Load     load.Params
	ReadWork instr.Instr // useful work per read body
	RMWWork  instr.Instr // useful work per read-modify-write body
	SLO      int64       // latency budget in virtual instructions

	// RetryAfter, when positive, arms a deadline on every request: if the
	// request has not completed RetryAfter after an attempt is issued, the
	// frontend re-issues it (a hedge — the original attempt keeps running
	// and the first completion wins; the deduplicating RMW variant absorbs
	// the duplicates). The deadline backs off exponentially per retry,
	// capped at 8x. Retries also re-issue requests that could not start at
	// all because their frontend was down or crash-lost. Zero disables
	// retries (a request lost to a crash stays lost). Selects the
	// deduplicating RMW variant for all requests.
	RetryAfter instr.Instr
	// MaxRetries bounds re-issues per request (0 with RetryAfter set means
	// retries are armed but never fired — effectively off).
	MaxRetries int
}

// DefaultParams returns the reference (small/CI) Table 9 workload: 8 nodes,
// a 1024-key space, four keyed operations per request at YCSB-like skew,
// offered load sized so the mostly-local pre-flip system runs comfortably
// while the mostly-remote post-flip system saturates, and a half-keyspace
// hotspot flip at 40% of the horizon. Larger scales stretch Keys and
// Horizon (see cmd/tables).
func DefaultParams(seed int64) Params {
	return Params{
		Nodes:    8,
		Keys:     1024,
		ReadWork: 300,
		RMWWork:  400,
		SLO:      20_000,
		Load: load.Params{
			Seed:      uint64(seed),
			Horizon:   2_000_000,
			MeanGap:   600,
			Theta:     0.9,
			OpsPerReq: 4,
			RMWFrac:   0.25,
			Flips:     []load.Flip{{AtFrac: 0.4, Shift: 0.5}},
		},
	}
}

// Serving-tuned migration policies. The defaults in internal/migrate are
// tuned for iterative kernels whose traffic is stationary; serving traffic
// under a hotspot flip is the opposite, and the object access counters
// never decay, so a hot key enters the post-flip world with a large
// co-resident hit count from its pre-flip life. Alpha below 1 makes the
// hysteresis test "the new remote requester is comparable to the old local
// traffic" rather than "half again bigger", which is the right question
// when the flip inverts who is local. MinTop stays low because per-key
// counts at CI scale are hundreds, not thousands, and MaxSkew is loose
// because the flip's key exchange is symmetric — every node both sheds and
// gains hot keys, so transient imbalance self-corrects.

// ThresholdPolicy returns the reactive serving policy.
func ThresholdPolicy() core.MigrationPolicy {
	return &policy.Threshold{MinTop: 16, Alpha: 0.5, MaxSkew: 16, MaxMoves: 2}
}

// RebalancePeriod is the heartbeat interval to use with RebalancePolicy.
const RebalancePeriod core.Instr = 100_000

// RebalancePolicy returns the periodic serving policy.
func RebalancePolicy() core.MigrationPolicy {
	return &policy.Rebalance{MinTop: 16, Alpha: 0.5, MaxSkew: 16, MaxMoves: 2, MaxMovesPerTick: 8}
}

// Result is one run's measurements.
type Result struct {
	Requests      int
	Ops           int64
	RMWs          int64 // read-modify-writes issued by the generator
	Applied       int64 // read-modify-writes present in final KV state
	Hist          *stats.LatencyHist
	P50           int64
	P99           int64
	P999          int64
	SLOFrac       float64 // fraction of requests inside the SLO budget
	Seconds       float64 // parallel completion time
	LocalFraction float64
	Messages      int64
	Moves         int64 // objects migrated during the run
	Lost          int64 // requests that never completed (crash-lost work)
	Retries       int64 // deadline-based request re-issues
	Recovery      core.RecoveryStats
	Stats         core.NodeStats
	Counters      instr.Counters
}

// Run executes the serving workload under cfg (whose Migration field selects
// the placement policy, nil for static) and returns the latency results.
// Each RMW adds exactly 1, so Applied == RMWs verifies every operation
// executed exactly once — the check that matters under a lossy network with
// the reliable layer on.
func Run(mdl *machine.Model, cfg core.Config, p Params) Result {
	return run(mdl, cfg, p, new(App))
}

// run is Run on a harness the caller supplies, so that tests can read it
// during and after the run.
func run(mdl *machine.Model, cfg core.Config, p Params, app *App) Result {
	if p.Nodes <= 0 || p.Keys <= 0 || p.Keys%p.Nodes != 0 {
		panic(fmt.Sprintf("serve: Keys=%d must be a positive multiple of Nodes=%d", p.Keys, p.Nodes))
	}
	m := Build(p.ReadWork, p.RMWWork)
	if err := m.Prog.Resolve(cfg.Interfaces); err != nil {
		panic(err)
	}
	lp := p.Load
	lp.Keys = p.Keys
	lp.Frontends = p.Nodes

	eng := sim.NewEngine(p.Nodes)
	rt := core.NewRT(eng, mdl, m.Prog, cfg)

	// The deduplicating durable RMW variant runs whenever anything can
	// re-execute or roll back a mutation: deadline retries duplicate
	// operations, and checkpointing needs mutations declared Durable to be
	// captured (and their replies group-committed). Without either, the
	// plain variant keeps the Table 9 workload byte-identical.
	*app = App{slo: p.SLO, tracer: cfg.Tracer,
		dedup: p.RetryAfter > 0 || cfg.CheckpointPeriod > 0,
		par:   rt.Eng.ParallelActive()}
	kvs := make([]*KV, p.Keys)
	app.refs = make([]core.Ref, p.Keys)
	for k := range kvs {
		kvs[k] = &KV{}
		app.refs[k] = rt.Node(k * p.Nodes / p.Keys).NewObject(kvs[k])
	}
	fronts := make([]core.Ref, p.Nodes)
	for f := range fronts {
		fronts[f] = rt.Node(f).NewObject(&Front{app: app})
	}

	// Arrivals are chained engine events: each one starts its request as a
	// fresh root on the frontend (open loop: the start is unconditional, no
	// matter how far behind the frontend is) and schedules the next arrival.
	// Chaining keeps the event heap at one pending arrival instead of the
	// whole trace, as the window keeps only the requests that can still run.
	gen := load.New(lp)
	crashy := cfg.Faults.Crashy()
	var ops, rmws int64

	// launch counts one attempt of request id into the window and starts it
	// as a fresh root, unless its frontend is currently unavailable (node
	// down, or the Front object crash-lost and not yet restored) — starting
	// there would target state that does not exist. When recovery is
	// configured the attempt is re-probed shortly (the arrival waits out the
	// outage, as a load balancer's accept queue would); without recovery the
	// frontend never comes back and the attempt is simply dropped.
	const probeEvery = 2_000
	var launch func(id int)
	launch = func(id int) {
		front := app.win.req(id).Front
		fn := rt.Node(front)
		if fn.Sim.Down() || fn.ObjectLost(fronts[front]) {
			if cfg.CheckpointPeriod > 0 && !app.win.finished(id) {
				eng.Schedule(eng.Now()+probeEvery, func() {
					if !app.win.finished(id) {
						launch(id)
					}
				})
			}
			return
		}
		app.win.start(id)
		rt.StartOn(front, m.Request, fronts[front], nil, core.IntW(int64(id)))
	}
	// retry fires retry try of request rqID, which waited wait, and arms
	// the next one. A retry is counted and traced on the frontend, then
	// launched exactly like the original attempt. The original attempt (if
	// any) keeps running; App.complete keeps only the first completion, and
	// the deduplicating RMW variant keeps the duplicated mutations
	// exactly-once.
	var retry func(rqID, try int, wait instr.Instr)
	retry = func(rqID, try int, wait instr.Instr) {
		if app.win.finished(rqID) {
			return
		}
		front := app.win.req(rqID).Front
		rt.Node(front).Stats.ReqRetries++
		if app.tracer != nil {
			app.tracer.Record(front, eng.Now(), uint8(trace.KReqRetry),
				"serve.request", int64(rqID))
		}
		launch(rqID)
		if try+1 < p.MaxRetries {
			next := wait * 2
			if cap := p.RetryAfter * 8; next > cap {
				next = cap
			}
			eng.Schedule(eng.Now()+next, func() { retry(rqID, try+1, next) })
		}
	}
	// Every arrival arms its first retry RetryAfter after itself, and
	// arrivals come in id order, so first retries fire in id order too:
	// the k-th to fire is request k's, and one callback serves them all.
	firstRetries := 0
	firstRetry := func() {
		id := firstRetries
		firstRetries++
		retry(id, 0, p.RetryAfter)
	}
	// At most one arrival is pending, because each arrival injects the
	// next, so one callback serves them all too: it reads the request
	// inject filed last.
	var inject func(rq load.Req)
	arrive := func() {
		id := app.win.next - 1
		if app.tracer != nil {
			rq := app.win.req(id)
			app.tracer.Record(rq.Front, instr.Instr(rq.At), uint8(trace.KReqArrive),
				"serve.request", int64(id))
		}
		launch(id)
		if p.RetryAfter > 0 && p.MaxRetries > 0 {
			eng.Schedule(eng.Now()+p.RetryAfter, firstRetry)
		}
		if nxt, ok := gen.Next(); ok {
			inject(nxt)
		}
	}
	inject = func(rq load.Req) {
		app.win.add(rq)
		ops += int64(len(rq.Keys))
		rmws += int64(bits.OnesCount64(rq.RMW))
		eng.Schedule(instr.Instr(rq.At), arrive)
	}
	if rq, ok := gen.Next(); ok {
		inject(rq)
	}

	rt.Run()
	if !crashy {
		// Under crashes a run may legitimately end with parked requests and
		// frames waiting for replies a crash destroyed (lost work, measured
		// below); without them the machine must quiesce cleanly and answer
		// everything.
		if err := rt.CheckQuiescence(); err != nil {
			panic(err)
		}
		if app.done != int64(app.win.next) {
			panic(fmt.Sprintf("serve: %d of %d requests completed", app.done, app.win.next))
		}
	}

	var applied int64
	for _, kv := range kvs {
		applied += kv.Val
	}
	if app.dedup {
		// The exactly-once invariant of the deduplicating RMW variant: each
		// key's value counts exactly its applied operation ids — no retry
		// ever applied twice, no restore ever resurrected a duplicate.
		for k, kv := range kvs {
			if kv.Val != kv.Applied {
				panic(fmt.Sprintf("serve: key %d: value %d != %d applied RMWs (duplicate or phantom RMW)",
					k, kv.Val, kv.Applied))
			}
		}
	}
	st := rt.TotalStats()
	res := Result{
		Requests: app.win.next,
		Ops:      ops,
		RMWs:     rmws,
		Applied:  applied,
		Hist:     &app.hist,
		Seconds:  mdl.Seconds(eng.MaxClock()),
		Messages: eng.TotalMessages(),
		Moves:    st.MigratesOut,
		Lost:     int64(app.win.next) - app.done,
		Retries:  st.ReqRetries,
		Recovery: rt.Recov(),
		Stats:    st,
		Counters: eng.TotalCounters(),
	}
	if total := st.LocalInvokes + st.RemoteInvokes; total > 0 {
		res.LocalFraction = float64(st.LocalInvokes) / float64(total)
	}
	if app.hist.Count() > 0 {
		res.P50 = app.hist.Quantile(0.50)
		res.P99 = app.hist.Quantile(0.99)
		res.P999 = app.hist.Quantile(0.999)
		res.SLOFrac = float64(app.sloOK) / float64(app.win.next)
	}
	return res
}
