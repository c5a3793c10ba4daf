package main

import (
	"galois"
	"galois/internal/apps/bfs"
	"galois/internal/apps/dmr"
	"galois/internal/apps/dt"
	"galois/internal/apps/mis"
	"galois/internal/apps/msf"
	"galois/internal/apps/pfp"
	"galois/internal/apps/sssp"
	"galois/internal/geom"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/mesh"
)

// app is one in-process app of a workload, called through its public entry
// points. Inputs come from the internal/inputs derivations, the same ones
// galoisd builds a job's input with, so an in-process fingerprint and a
// served receipt for the same (kind, scale, seed) are comparable.
type app struct {
	name string
	// family names the input; apps of one family share it (bfs and mis
	// both run on the k-out graph).
	family string
	build  func(sc inputs.Scale, seed uint64) any
	// fresh restores an input the run mutates (dmr's mesh, pfp's network)
	// to its initial state; nil for read-only inputs.
	fresh func(in any)
	run   func(in any, opts []galois.Option) solved
	seq   func(in any) uint64
	// seqOracle marks apps whose output is unique, so a g-n run must
	// reproduce the Seq result; the others are validated by solved.check.
	seqOracle bool
	// pinned is the g-d fingerprint for seed 42 at default scale.
	pinned uint64
}

// solved is the result of one Galois entry-point call.
type solved struct {
	st          galois.Stats
	fingerprint func() uint64
	check       func() error
}

type ssspInput struct {
	g *graph.Weighted
	o sssp.Options
}

type dtInput struct {
	pts  []geom.Point
	seed uint64
}

type dmrInput struct {
	n    int
	seed uint64
	root *mesh.Element
}

type msfInput struct {
	n     int
	edges []msf.WEdge
}

var allApps = map[string]*app{
	"bfs": {
		name: "bfs", family: "kout",
		build: func(sc inputs.Scale, seed uint64) any { return inputs.BFSGraph(sc.BFSNodes, sc.BFSDegree, seed) },
		run: func(in any, opts []galois.Option) solved {
			r := bfs.Galois(in.(*graph.CSR), 0, opts...)
			return solved{st: r.Stats, fingerprint: r.Fingerprint}
		},
		seq:       func(in any) uint64 { return bfs.Seq(in.(*graph.CSR), 0).Fingerprint() },
		seqOracle: true,
		pinned:    0x9961e38385ad10ae,
	},
	"mis": {
		name: "mis", family: "kout",
		build: func(sc inputs.Scale, seed uint64) any { return inputs.BFSGraph(sc.BFSNodes, sc.BFSDegree, seed) },
		run: func(in any, opts []galois.Option) solved {
			g := in.(*graph.CSR)
			r := mis.Galois(g, opts...)
			return solved{st: r.Stats, fingerprint: r.Fingerprint, check: func() error { return r.Check(g) }}
		},
		seq:    func(in any) uint64 { return mis.Seq(in.(*graph.CSR)).Fingerprint() },
		pinned: 0x4c014c4502281a00,
	},
	"sssp": {
		name: "sssp", family: "sssp",
		build: func(sc inputs.Scale, seed uint64) any {
			return &ssspInput{g: inputs.SSSPGraph(sc.SSSPNodes, sc.SSSPDegree, sc.SSSPMaxW, seed), o: sssp.DefaultOptions(sc.SSSPMaxW)}
		},
		run: func(in any, opts []galois.Option) solved {
			d := in.(*ssspInput)
			r := sssp.Galois(d.g, 0, d.o, opts...)
			return solved{st: r.Stats, fingerprint: r.Fingerprint}
		},
		seq:       func(in any) uint64 { return sssp.Seq(in.(*ssspInput).g, 0).Fingerprint() },
		seqOracle: true,
		pinned:    0x3a58957f73111d9b,
	},
	"dt": {
		name: "dt", family: "dt",
		build: func(sc inputs.Scale, seed uint64) any {
			return &dtInput{pts: inputs.DTPoints(sc.DTPoints, seed), seed: seed}
		},
		// seed+3 is galoisd's and the harness's BRIO-shuffle derivation.
		run: func(in any, opts []galois.Option) solved {
			d := in.(*dtInput)
			r := dt.Galois(d.pts, d.seed+3, opts...)
			return solved{st: r.Stats, fingerprint: r.Fingerprint}
		},
		seq: func(in any) uint64 {
			d := in.(*dtInput)
			return dt.Seq(d.pts, d.seed+3).Fingerprint()
		},
		seqOracle: true,
		pinned:    0xe79318dc4f248908,
	},
	"dmr": {
		name: "dmr", family: "dmr",
		build: func(sc inputs.Scale, seed uint64) any { return &dmrInput{n: sc.DMRPoints, seed: seed} },
		fresh: func(in any) {
			d := in.(*dmrInput)
			d.root = nil // let the refined mesh go before building the next
			d.root = inputs.DMRMesh(d.n, d.seed)
		},
		run: func(in any, opts []galois.Option) solved {
			q := dmr.DefaultQuality()
			r := dmr.Galois(in.(*dmrInput).root, q, opts...)
			return solved{st: r.Stats, fingerprint: r.Fingerprint, check: func() error { return r.Check(q) }}
		},
		seq:    func(in any) uint64 { return dmr.Seq(in.(*dmrInput).root, dmr.DefaultQuality()).Fingerprint() },
		pinned: 0x0379178b4f631a4f,
	},
	"pfp": {
		name: "pfp", family: "pfp",
		build: func(sc inputs.Scale, seed uint64) any { return inputs.PFPNetwork(sc.PFPNodes, sc.PFPDegree, seed) },
		fresh: func(in any) { in.(*pfp.Network).Reset() },
		run: func(in any, opts []galois.Option) solved {
			flow, st := pfp.Galois(in.(*pfp.Network), opts...)
			return solved{st: st, fingerprint: func() uint64 { return uint64(flow) }}
		},
		seq: func(in any) uint64 {
			flow, _ := pfp.Seq(in.(*pfp.Network))
			return uint64(flow)
		},
		seqOracle: true,
		pinned:    0x128,
	},
	"msf": {
		name: "msf", family: "msf",
		build: func(sc inputs.Scale, seed uint64) any {
			n, edges := inputs.MSFEdges(sc.MSFNodes, sc.MSFDegree, sc.MSFMaxW, seed)
			return &msfInput{n: n, edges: edges}
		},
		run: func(in any, opts []galois.Option) solved {
			d := in.(*msfInput)
			r := msf.Galois(d.n, d.edges, opts...)
			return solved{st: r.Stats, fingerprint: r.Fingerprint}
		},
		seq: func(in any) uint64 {
			d := in.(*msfInput)
			return msf.Seq(d.n, d.edges).Fingerprint()
		},
		seqOracle: true,
	},
}
