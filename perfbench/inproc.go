package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"

	"galois"
	"galois/internal/inputs"
)

// config is one scheduler configuration of a pass.
type config struct {
	name    string
	det     bool
	threads int
}

// The three configurations every pass runs, in this order. Keeping the
// g-d t2 block contiguous lets alloc and GC deltas cover exactly it.
var (
	gd2     = config{"gd2", true, 2}
	gd1     = config{"gd1", true, 1}
	gn2     = config{"gn2", false, 2}
	configs = []config{gd2, gd1, gn2}
)

func (c config) opts(eng *galois.Engine, extra ...galois.Option) []galois.Option {
	o := []galois.Option{galois.WithThreads(c.threads)}
	if c.det {
		o = append(o, galois.WithSched(galois.Deterministic))
	}
	if eng != nil {
		o = append(o, galois.WithEngine(eng))
	}
	return append(o, extra...)
}

// sample is one timed app run: the entry-point call plus Fingerprint().
type sample struct {
	run, fp    float64 // seconds in the Galois call and in Fingerprint()
	allocBytes float64
	allocObjs  float64
	gcCPU      float64 // GC CPU seconds during the call
	st         galois.Stats
}

func (s sample) wall() float64 { return s.run + s.fp }

// mem reads the runtime counters the in-process metrics are deltas of.
type mem struct{ bytes, objs, gcCPU float64 }

var memMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readMem() mem {
	s := append([]metrics.Sample(nil), memMetrics...)
	metrics.Read(s)
	return mem{bytes: float64(s[0].Value.Uint64()), objs: float64(s[1].Value.Uint64()), gcCPU: s[2].Value.Float64()}
}

// unit is one app on one input: the in-process set is every app of the
// workload on each of its input seeds.
type unit struct {
	a    *app
	seed uint64
}

func (u unit) key() string { return fmt.Sprintf("%s/%d", u.a.name, u.seed) }

// input keys the built inputs: apps of one family share the input.
func (u unit) input() string { return fmt.Sprintf("%s/%d", u.a.family, u.seed) }

// inproc drives a workload's in-process set on one held engine.
type inproc struct {
	units []unit
	sc    inputs.Scale
	tr    *tracer
	in    map[string]any // by unit.input()
	eng   *galois.Engine
	build []float64 // seconds each setup spent building inputs

	samples map[string][]sample // by unit key and config
	first   []float64           // first-run wall time of each unit
	ref     map[string]uint64   // g-d fingerprint per unit
	refs    map[string]uint64   // small-scale fingerprints of served specs
	gnFP    map[string][]uint64 // g-n fingerprints awaiting the Seq oracle
	seqS    float64             // seconds in the Seq calls
	runs    int
}

func newInproc(names []string, sc inputs.Scale, seeds []uint64, tr *tracer) *inproc {
	p := &inproc{sc: sc, tr: tr, samples: make(map[string][]sample), ref: make(map[string]uint64),
		refs: make(map[string]uint64), gnFP: make(map[string][]uint64)}
	for _, seed := range seeds {
		for _, n := range names {
			p.units = append(p.units, unit{allApps[n], seed})
		}
	}
	return p
}

// setup builds the inputs and a fresh engine.
func (p *inproc) setup(parent ref) {
	s := p.tr.begin("inputs.build", parent)
	t := now()
	p.in = make(map[string]any)
	for _, u := range p.units {
		if _, ok := p.in[u.input()]; !ok {
			p.in[u.input()] = u.a.build(p.sc, u.seed)
		}
	}
	p.build = append(p.build, now().Sub(t).Seconds())
	p.tr.end(s, nil)

	s = p.tr.begin("core.new_engine", parent)
	p.eng = galois.NewEngine(galois.WithThreads(2))
	p.tr.end(s, nil)
}

// warm runs each unit once under g-d at two threads: the first runs on
// the fresh engine.
func (p *inproc) warm(parent ref) error {
	gc(p.tr, parent)
	for _, u := range p.units {
		smp, err := p.timed(u, gd2, parent)
		if err != nil {
			return err
		}
		p.first = append(p.first, smp.wall())
	}
	return nil
}

// gc collects garbage under a runtime.gc span, so a block of timed runs
// starts from the same heap state whatever ran before it.
func gc(tr *tracer, parent ref) {
	s := tr.begin("runtime.gc", parent)
	runtime.GC()
	tr.end(s, nil)
}

// close releases the engine and the inputs.
func (p *inproc) close() {
	if p.eng != nil {
		p.eng.Close()
		p.eng = nil
	}
	p.in = nil
}

// passes runs n passes of every configuration over the set.
func (p *inproc) passes(n int) error {
	for i := 0; i < n; i++ {
		root := p.tr.root("pass")
		gc(p.tr, root)
		for _, c := range configs {
			for _, u := range p.units {
				smp, err := p.timed(u, c, root)
				if err != nil {
					return err
				}
				k := u.key() + "/" + c.name
				p.samples[k] = append(p.samples[k], smp)
			}
		}
		p.tr.end(root, nil)
	}
	return nil
}

// timed runs u once under c and checks its output: a g-d fingerprint must
// equal every earlier one of the unit (any thread count, fresh or reused
// engine) and the pinned value where one applies; a g-n output must pass
// the app's check, or is held for the Seq oracle.
func (p *inproc) timed(u unit, c config, parent ref, extra ...galois.Option) (sample, error) {
	a, in := u.a, p.in[u.input()]
	if a.fresh != nil {
		s := p.tr.begin("inputs.build", parent)
		a.fresh(in)
		p.tr.end(s, nil)
	}
	opts := c.opts(p.eng, extra...)
	m0 := readMem()
	s := p.tr.begin("apps."+a.name+".run", parent)
	t0 := now()
	res := a.run(in, opts)
	t1 := now()
	p.tr.end(s, statCounts(res.st, c))
	s = p.tr.begin("apps."+a.name+".fingerprint", parent)
	fp := res.fingerprint()
	t2 := now()
	p.tr.end(s, nil)
	m1 := readMem()
	p.runs++

	smp := sample{run: t1.Sub(t0).Seconds(), fp: t2.Sub(t1).Seconds(),
		allocBytes: m1.bytes - m0.bytes, allocObjs: m1.objs - m0.objs, gcCPU: m1.gcCPU - m0.gcCPU, st: res.st}
	if c.det {
		return smp, p.checkDet(u, c, fp)
	}
	if a.seqOracle {
		p.gnFP[u.key()] = append(p.gnFP[u.key()], fp)
		return smp, nil
	}
	s = p.tr.begin("apps."+a.name+".check", parent)
	err := res.check()
	p.tr.end(s, nil)
	if err != nil {
		return smp, fmt.Errorf("%s %s: output fails its check: %v", u.key(), c.name, err)
	}
	return smp, nil
}

func (p *inproc) checkDet(u unit, c config, fp uint64) error {
	if u.seed == 42 && p.sc.Name == "default" && u.a.pinned != 0 && fp != u.a.pinned {
		return fmt.Errorf("%s %s: fingerprint %016x, pinned %016x", u.key(), c.name, fp, u.a.pinned)
	}
	if ref, ok := p.ref[u.key()]; ok && fp != ref {
		return fmt.Errorf("%s %s: fingerprint %016x differs from the earlier g-d runs (%016x)", u.key(), c.name, fp, ref)
	}
	p.ref[u.key()] = fp
	return nil
}

func statCounts(st galois.Stats, c config) map[string]int64 {
	return map[string]int64{
		"threads": int64(c.threads), "commits": int64(st.Commits), "aborts": int64(st.Aborts),
		"rounds": int64(st.Rounds), "barriers": int64(st.Barriers), "atomic_ops": int64(st.AtomicOps),
		"elapsed_ns": st.Elapsed.Nanoseconds(), "inspect_ns": st.PhaseInspectNS,
		"execute_ns": st.PhaseExecuteNS, "coordinate_ns": st.PhaseCoordinateNS,
	}
}

// seqCheck runs the sequential baselines: every unit's when all is set
// (the traced run reports their time), else only those serving as the
// oracle for g-n outputs. For an oracle app the g-d and every g-n
// fingerprint must equal the Seq result.
func (p *inproc) seqCheck(all bool) error {
	root := p.tr.root("check")
	defer p.tr.end(root, nil)
	gc(p.tr, root)
	for _, u := range p.units {
		if !u.a.seqOracle && !all {
			continue
		}
		in := p.in[u.input()]
		if u.a.fresh != nil {
			u.a.fresh(in)
		}
		s := p.tr.begin("apps."+u.a.name+".seq", root)
		t := now()
		fp := u.a.seq(in)
		p.seqS += now().Sub(t).Seconds()
		p.tr.end(s, nil)
		p.runs++
		if !u.a.seqOracle {
			continue
		}
		for _, g := range append([]uint64{p.ref[u.key()]}, p.gnFP[u.key()]...) {
			if g != fp {
				return fmt.Errorf("%s: fingerprint %016x differs from the Seq result %016x", u.key(), g, fp)
			}
		}
	}
	return nil
}

// pinCheck runs each app of the set that has a pinned fingerprint once
// under g-d at 2 threads on its default-scale seed-42 input, and checks
// the fingerprint against the pin. It serves workloads whose own inputs
// are at another scale.
func (p *inproc) pinCheck() error {
	root := p.tr.root("check.pins")
	defer p.tr.end(root, nil)
	sc := inputs.DefaultScale()
	in := make(map[string]any) // by family
	for _, u := range p.units {
		a := u.a
		if a.pinned == 0 || u.seed != 42 {
			continue
		}
		s := p.tr.begin("inputs.build", root)
		if _, ok := in[a.family]; !ok {
			in[a.family] = a.build(sc, 42)
		}
		if a.fresh != nil {
			a.fresh(in[a.family])
		}
		p.tr.end(s, nil)
		s = p.tr.begin("apps."+a.name+".run", root)
		fp := a.run(in[a.family], gd2.opts(p.eng)).fingerprint()
		p.tr.end(s, nil)
		p.runs++
		if fp != a.pinned {
			return fmt.Errorf("%s g-d at default scale, seed 42: fingerprint %016x, pinned %016x", a.name, fp, a.pinned)
		}
	}
	return nil
}

// served returns the fingerprint the served spec (kind, small scale, seed)
// gives in process: the g-d result at one thread without an engine, or the
// Seq result when seq is set.
func (p *inproc) served(kind string, seed uint64, seq bool) uint64 {
	key := fmt.Sprintf("%s/%d/%v", kind, seed, seq)
	if fp, ok := p.refs[key]; ok {
		return fp
	}
	a := allApps[kind]
	in := a.build(inputs.SmallScale(), seed)
	if a.fresh != nil {
		a.fresh(in)
	}
	var fp uint64
	if seq {
		fp = a.seq(in)
	} else {
		fp = a.run(in, gd1.opts(nil)).fingerprint()
	}
	p.refs[key] = fp
	return fp
}

// tracedPass runs one g-d t2 pass with a scheduler trace sink and metrics
// registry attached, returning its summed wall time.
func (p *inproc) tracedPass() (float64, error) {
	root := p.tr.root("pass.obs")
	defer p.tr.end(root, nil)
	gc(p.tr, root)
	var total float64
	for _, u := range p.units {
		smp, err := p.timed(u, gd2, root, galois.WithTrace(galois.NewTrace(2)), galois.WithMetrics(galois.NewMetrics(2)))
		if err != nil {
			return 0, err
		}
		total += smp.wall()
	}
	return total, nil
}

// med returns the median over passes of f applied to u's samples under c.
func (p *inproc) med(u unit, c config, f func(sample) float64) float64 {
	var xs []float64
	for _, s := range p.samples[u.key()+"/"+c.name] {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// setMedian sums, over the units of app (all units when app is ""), each
// unit's median of f under c.
func (p *inproc) setMedian(app string, c config, f func(sample) float64) float64 {
	var sum float64
	for _, u := range p.units {
		if app == "" || u.a.name == app {
			sum += p.med(u, c, f)
		}
	}
	return sum
}

// perPass returns, for each pass, f summed over the set under c.
func (p *inproc) perPass(c config, f func(sample) float64) []float64 {
	var out []float64
	for _, u := range p.units {
		for i, s := range p.samples[u.key()+"/"+c.name] {
			if i == len(out) {
				out = append(out, 0)
			}
			out[i] += f(s)
		}
	}
	return out
}

// lastStats sums the exact counters of the last pass's runs under c.
func (p *inproc) lastStats(c config) galois.Stats {
	var sum galois.Stats
	for _, u := range p.units {
		ss := p.samples[u.key()+"/"+c.name]
		sum = sum.Add(ss[len(ss)-1].st)
	}
	return sum
}

func wall(s sample) float64 { return s.wall() }

// endToEnd adds the in-process end-to-end metrics.
func (p *inproc) endToEnd(m metricSet) {
	m.add("det_s", p.setMedian("", gd2, wall), "s")
	m.add("det_t1_s", p.setMedian("", gd1, wall), "s")
	m.add("nondet_s", p.setMedian("", gn2, wall), "s")
	m.add("alloc_mb", median(p.perPass(gd2, func(s sample) float64 { return s.allocBytes }))/1e6, "MB")
}

// perLayer adds the in-process per-layer metrics. apps.<app>.* are 0 for
// apps outside the workload's set: they contribute nothing to its timings.
func (p *inproc) perLayer(m metricSet, tracedDet float64) {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	det, detT1, nondet := p.setMedian("", gd2, wall), p.setMedian("", gd1, wall), p.setMedian("", gn2, wall)

	m.add("inputs.build_s", median(p.build), "s")
	m.add("core.foreach_s", p.setMedian("", gd2, func(s sample) float64 { return s.st.Elapsed.Seconds() }), "s")
	m.add("core.inspect_s", p.setMedian("", gd2, func(s sample) float64 { return sec(s.st.PhaseInspectNS) }), "s")
	m.add("core.execute_s", p.setMedian("", gd2, func(s sample) float64 { return sec(s.st.PhaseExecuteNS) }), "s")
	m.add("core.coordinate_s", p.setMedian("", gd2, func(s sample) float64 { return sec(s.st.PhaseCoordinateNS) }), "s")
	m.add("core.other_s", p.setMedian("", gd2, func(s sample) float64 {
		return s.st.Elapsed.Seconds() - sec(s.st.PhaseInspectNS+s.st.PhaseExecuteNS+s.st.PhaseCoordinateNS)
	}), "s")

	st, st1 := p.lastStats(gd2), p.lastStats(gd1)
	m.add("core.rounds", float64(st.Rounds), "count")
	m.add("core.barriers_per_round", st.BarriersPerRound(), "count")
	m.add("core.commit_ratio", ratio(float64(st.Commits), float64(st.Commits+st.Aborts)), "ratio")
	m.add("core.atomic_ops_per_commit", ratio(float64(st1.AtomicOps), float64(st1.Commits)), "count")
	m.add("core.allocs_per_run", median(p.perPass(gd2, func(s sample) float64 { return s.allocObjs }))/float64(len(p.units)), "count")

	var firstExtra float64
	for i, u := range p.units {
		firstExtra += p.first[i] - p.med(u, gd2, wall)
	}
	m.add("core.first_run_extra_s", firstExtra, "s")
	m.add("core.scaling_eff", ratio(detT1, 2*det), "ratio")
	m.add("core.det_overhead", ratio(det, nondet), "ratio")

	for _, name := range []string{"bfs", "mis", "sssp", "dt", "dmr", "pfp"} {
		m.add("apps."+name+".det_s", p.setMedian(name, gd2, wall), "s")
		m.add("apps."+name+".det_t1_s", p.setMedian(name, gd1, wall), "s")
		m.add("apps."+name+".nondet_s", p.setMedian(name, gn2, wall), "s")
	}
	m.add("apps.serial_s", p.setMedian("", gd2, func(s sample) float64 { return s.run - s.st.Elapsed.Seconds() }), "s")
	m.add("apps.fingerprint_s", p.setMedian("", gd2, func(s sample) float64 { return s.fp }), "s")
	m.add("apps.seq_s", p.seqS, "s")
	m.add("runtime.gc_cpu_s", median(p.perPass(gd2, func(s sample) float64 { return s.gcCPU })), "s")
	m.add("obs.trace_overhead", ratio(tracedDet, det)-1, "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints each unit's timings per configuration: median and
// quartiles over the run's passes, with the sample count.
func (p *inproc) report(w io.Writer) {
	for _, c := range configs {
		for _, u := range p.units {
			var ws, fe []float64
			for _, s := range p.samples[u.key()+"/"+c.name] {
				ws, fe = append(ws, s.wall()), append(fe, s.st.Elapsed.Seconds())
			}
			q1, q2, q3 := quartiles(ws)
			fmt.Fprintf(w, "  %-10s %s  %.4fs [%.4f, %.4f] n=%d  foreach %.4fs\n", u.key(), c.name, q2, q1, q3, len(ws), median(fe))
		}
	}
}
