// Command perfbench is the repository's benchmark. It runs one named
// workload in this process and prints its metrics: with -trace 0 the
// end-to-end metrics, with -trace 1 the per-layer metrics, derived from
// spans the benchmark records around its calls into each layer. Every run
// also checks the outputs it measured and exits non-zero on any mismatch.
//
//	go run . -workload dig-graph -seed 42 -seconds 40 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A readable table of the same figures goes to standard error. See
// README.md for the workloads and what each metric is meant to show.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"galois/internal/inputs"
)

// workload is one named benchmark input: an app set run in process, and a
// served load of the same kinds over the in-process galoisrouter cluster.
// A run is a number of rounds, set by -seconds; a round is one in-process
// pass followed by one served segment. Interleaving the two spreads the
// samples of each over the whole run, so a slow spell of the machine
// weighs on both alike, and starting each segment on a fresh cluster keeps
// the backends' heap (their input caches never evict) the same from
// segment to segment.
type workload struct {
	apps []string
	// deck is the served kinds in the proportions jobs draw them.
	deck  []string
	scale func() inputs.Scale
	// inputs is how many input seeds (seed, seed+1, ...) each app runs on
	// in process; more of them average out how much one input's shape
	// sways a timing (sssp g-n by up to 3x, small-scale runs by 20%).
	inputs int
	// roundSeconds is how much of -seconds one round stands for.
	roundSeconds float64
	// segmentJobs is the one-shot job count of one segment, both clients
	// together; a run has at least minJobs.
	segmentJobs int
	sessions    [2]string // session kind of each client
	// pins is set when the workload's scale is not the one the pinned
	// fingerprints are for: seed 42 then runs a separate pin check.
	pins bool
}

// quarterScale is the default scale with a quarter of its graph nodes:
// 250k nodes in the k-out graph and 50k in the weighted one. The k-out
// graph's CSR alone is about 12 MB, three times the 4 MiB per-core L2, and
// a pass takes a quarter as long, so a run holds passes on several inputs.
func quarterScale() inputs.Scale {
	sc := inputs.DefaultScale()
	sc.Name = "quarter"
	sc.BFSNodes /= 4
	sc.SSSPNodes /= 4
	return sc
}

var workloads = map[string]*workload{
	"dig-graph": {
		apps: []string{"bfs", "mis", "sssp"}, deck: []string{"bfs", "mis", "sssp"}, scale: quarterScale, inputs: 3,
		roundSeconds: 10, segmentJobs: 80, sessions: [2]string{"sssp", "sssp"}, pins: true,
	},
	"dig-mesh": {
		apps: []string{"dt", "dmr", "pfp"}, deck: []string{"dt", "dmr", "pfp"}, scale: inputs.DefaultScale, inputs: 1,
		roundSeconds: 20, segmentJobs: 100, sessions: [2]string{"dmr", "dmr"},
	},
	"serve-mix": {
		apps: []string{"bfs", "mis", "sssp", "msf", "dt", "dmr", "pfp"}, scale: inputs.SmallScale, inputs: 3,
		// Job latencies are bimodal: a job that overlaps a GC cycle takes
		// about twice as long. Weighting the short kinds (pfp three times,
		// the graph kinds twice) puts the median among the unslowed graph
		// jobs instead of on the edge where the slowed ones begin.
		deck:         []string{"bfs", "bfs", "mis", "mis", "sssp", "sssp", "msf", "dt", "dmr", "pfp", "pfp", "pfp"},
		roundSeconds: 10, segmentJobs: 140, sessions: [2]string{"dmr", "sssp"},
	},
}

// setups is how many times a run constructs its inputs, engine and
// cluster; setup_s is the median of these plus the one warm-up pass.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	start := now()
	name := flag.String("workload", "", "workload: dig-graph, dig-mesh or serve-mix")
	seed := flag.Uint64("seed", 42, "seed every input and request is derived from")
	seconds := flag.Float64("seconds", 40, "measurement length; sets the round count, so the pass and request counts")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	spansDir := flag.String("spans-dir", ".", "directory the traced run writes its spans to")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload dig-graph|dig-mesh|serve-mix, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	//detlint:ignore taintfp start only times set-up; no fingerprint reads it
	res, err := run(w, *seed, *seconds, tr, start)
	if err == nil && tr != nil {
		err = tr.write(filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printTable(os.Stderr, *name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets up, measures and checks one workload.
func run(w *workload, seed uint64, seconds float64, tr *tracer, start time.Time) (*result, error) {
	var seeds []uint64
	for i := 0; i < w.inputs; i++ {
		seeds = append(seeds, seed+uint64(i))
	}
	p := newInproc(w.apps, w.scale(), seeds, tr)
	defer p.close()
	var c *cluster
	defer func() {
		if c != nil {
			c.close()
		}
	}()

	// Construct everything several times, each from scratch, and keep the
	// last; then warm up once.
	var setupS []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
			p.close()
			runtime.GC()
		}
		t := now()
		if i == 0 {
			t = start
		}
		root := tr.root("setup")
		var err error
		if c, err = startCluster(tr, root); err != nil {
			return nil, err
		}
		p.setup(root)
		err = c.warm(tr, root, seed, w.apps)
		tr.end(root, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, now().Sub(t).Seconds())
	}
	t := now()
	root := tr.root("setup.warm")
	err := p.warm(root)
	tr.end(root, nil)
	if err != nil {
		return nil, err
	}
	warmS := now().Sub(t).Seconds()

	rounds := max(2, int(math.Round(seconds/w.roundSeconds)))
	jobs := max(w.segmentJobs, (minJobs+rounds-1)/rounds)
	sv := &served{}
	for r := 0; r < rounds; r++ {
		if err := p.passes(1); err != nil {
			return nil, err
		}
		if c == nil {
			root := tr.root("setup.segment")
			c, err = startCluster(tr, root)
			if err == nil {
				err = c.warm(tr, root, seed, w.apps)
			}
			tr.end(root, nil)
			if err != nil {
				return nil, err
			}
		}
		root := tr.root("segment")
		gc(tr, root)
		tr.end(root, nil)
		if err := sv.segment(c, tr, seed, r, w.deck, w.sessions, jobs); err != nil {
			return nil, err
		}
		c.close()
		c = nil
	}
	if err := p.seqCheck(tr != nil); err != nil {
		return nil, err
	}
	var tracedDet float64
	if tr != nil {
		if tracedDet, err = p.tracedPass(); err != nil {
			return nil, err
		}
	}
	if err := sv.check(seed, p.served); err != nil {
		return nil, err
	}
	// Read before the pin check, whose default-scale inputs are no part of
	// the workload.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if w.pins && seed == 42 {
		if err := p.pinCheck(); err != nil {
			return nil, err
		}
	}

	m := metricSet{}
	if tr == nil {
		m.add("setup_s", median(setupS)+warmS, "s")
		p.endToEnd(m)
		if err := sv.endToEnd(m); err != nil {
			return nil, err
		}
		m.add("peak_rss_mb", rss, "MB")
	} else {
		spans := tr.snapshot()
		p.perLayer(m, tracedDet)
		sv.perLayer(m, spans)
		m.add("unattributed_share", unattributedShare(spans), "ratio")
	}
	p.report(os.Stderr)
	sv.report(os.Stderr)
	return &result{Correct: true, Attempted: p.runs + sv.tally.attempted, Failed: sv.tally.failed(), Metrics: m}, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func printTable(f *os.File, name string, res *result) {
	m := res.Metrics
	names := slices.Sorted(maps.Keys(m))
	fmt.Fprintf(f, "perfbench %s (GOMAXPROCS=%d): %d operations, %d failed\n", name, runtime.GOMAXPROCS(0), res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
