package compll

import (
	"embed"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"hipress/internal/compress"
	"hipress/internal/tensor"
)

//go:embed programs/*.cll
var programFS embed.FS

// Algorithm is a compiled DSL program ready to instantiate compressors.
type Algorithm struct {
	prog *Program
	src  string
}

// Compile parses and sanity-checks DSL source. name labels error messages
// and derived compressor names.
func Compile(name, src string) (*Algorithm, error) {
	prog, err := Parse(name, src)
	if err != nil {
		return nil, err
	}
	if prog.Func("encode") == nil || prog.Func("decode") == nil {
		return nil, fmt.Errorf("compll: %s must declare both encode and decode", name)
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return &Algorithm{prog: prog, src: src}, nil
}

// Name returns the algorithm name.
func (a *Algorithm) Name() string { return a.prog.Name }

// Program exposes the parsed AST (for the code generator and tooling).
func (a *Algorithm) Program() *Program { return a.prog }

// Source returns the original DSL text.
func (a *Algorithm) Source() string { return a.src }

// Compressor instantiates a compress.Compressor backed by the interpreter.
// Each instance owns its random stream (seed) until compress.SetStream
// positions it — give each node its own, like independent CUDA streams.
func (a *Algorithm) Compressor(params map[string]float64, seed uint64) compress.Compressor {
	return &dslCompressor{
		algo:   a,
		params: params,
		interp: NewInterp(a.prog, seed),
	}
}

// dslCompressor adapts an interpreted DSL program to the compress.Compressor
// interface — the "automated integration" path: a .cll file plugs straight
// into CaSync.
type dslCompressor struct {
	algo   *Algorithm
	params map[string]float64
	interp *Interp

	mu        sync.Mutex
	probeN    int
	probeSize int
}

// Name implements compress.Compressor.
func (c *dslCompressor) Name() string { return "cll-" + c.algo.prog.Name }

// SetStream implements compress.StreamSetter: the program's random<> draws
// continue from key.
func (c *dslCompressor) SetStream(key uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interp.rng.Restore(tensor.RNGState(key))
}

// EncodeInto implements compress.Compressor. The interpreter builds its
// payload in fresh memory; it is copied into dst.
func (c *dslCompressor) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.interp.Encode(grad, c.params)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], p...), nil
}

// DecodeInto implements compress.Compressor.
func (c *dslCompressor) DecodeInto(dst []float32, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dec, err := c.interp.Decode(payload, len(dst), c.params)
	if err != nil {
		return err
	}
	copy(dst, dec)
	return nil
}

// CompressedSize implements compress.Compressor. DSL programs carry no
// closed-form size model, so the size is estimated from one real probe
// encode and scaled linearly — adequate for planning, and irrelevant to
// correctness (payloads are self-describing). The probe runs on a throw-away
// interpreter: sizing a buffer must not move the stream encodes draw from.
func (c *dslCompressor) CompressedSize(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.probeN == 0 {
		const probe = 4096
		g := make([]float32, probe)
		r := NewRNG(12345)
		for i := range g {
			g[i] = float32(r.NormFloat64())
		}
		payload, err := NewInterp(c.algo.prog, 0).Encode(g, c.params)
		if err != nil {
			// A broken program will fail loudly on Encode; report a neutral
			// estimate here.
			c.probeN, c.probeSize = probe, 4*probe
		} else {
			c.probeN, c.probeSize = probe, len(payload)
		}
	}
	return int(float64(n) / float64(c.probeN) * float64(c.probeSize))
}

// --- built-in program registry ------------------------------------------------

var (
	builtinOnce sync.Once
	builtinAlgs map[string]*Algorithm
	builtinErr  error
)

// BuiltinAlgorithms compiles (once) and returns the five paper algorithms
// shipped as .cll programs, keyed by name.
func BuiltinAlgorithms() (map[string]*Algorithm, error) {
	builtinOnce.Do(func() {
		builtinAlgs = map[string]*Algorithm{}
		entries, err := programFS.ReadDir("programs")
		if err != nil {
			builtinErr = err
			return
		}
		for _, e := range entries {
			src, err := programFS.ReadFile(path.Join("programs", e.Name()))
			if err != nil {
				builtinErr = err
				return
			}
			name := strings.TrimSuffix(e.Name(), ".cll")
			alg, err := Compile(name, string(src))
			if err != nil {
				builtinErr = fmt.Errorf("compll: compiling %s: %w", e.Name(), err)
				return
			}
			builtinAlgs[name] = alg
		}
	})
	return builtinAlgs, builtinErr
}

// defaultParams mirrors the native implementations' defaults so "cll-x" and
// "x" are comparable out of the box.
var defaultParams = map[string]map[string]float64{
	"terngrad": {"bitwidth": 2},
	"dgc":      {"ratio": 0.001},
	"graddrop": {"ratio": 0.01},
	"tbq":      {"tau": 0.05},
	"onebit":   {},
	"adacomp":  {"factor": 0.2},
	"threelc":  {"sparsity": 0.25},
}

func init() {
	// Automated integration (§4.4: "integrated into DNN systems by CompLL
	// without manual efforts"): every bundled DSL program registers itself
	// with the compression registry under a "cll-" prefix, making it
	// directly usable by CaSync, the engine, and the live training plane.
	algs, err := BuiltinAlgorithms()
	if err != nil {
		panic(err)
	}
	names := make([]string, 0, len(algs))
	for n := range algs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		RegisterCompressor(algs[n], "cll-"+n, defaultParams[n])
	}
}

// RegisterCompressor installs a compiled DSL algorithm into the global
// compression registry under registryName, with parameter defaults merged
// under the caller's overrides. This is the "automated integration" entry
// point for user-authored algorithms: compile a .cll file, register it, and
// every CaSync strategy, the engine presets, and the live training plane can
// name it immediately.
func RegisterCompressor(a *Algorithm, registryName string, defaults map[string]float64) {
	compress.Register(registryName, func(p compress.Params) (compress.Compressor, error) {
		merged := map[string]float64{}
		for k, v := range defaults {
			merged[k] = v
		}
		for k, v := range p {
			merged[k] = v
		}
		seed := uint64(1)
		if s, ok := merged["seed"]; ok {
			seed = uint64(s)
		}
		return a.Compressor(merged, seed), nil
	})
}

// Stats summarizes a program the way Table 5 does: logic lines (inside
// encode/decode), udf lines, and distinct common operators used.
type Stats struct {
	Name            string
	LogicLines      int
	UDFLines        int
	CommonOperators int
	OperatorNames   []string
}

// StatsOf computes Table 5 metrics for an algorithm.
func StatsOf(a *Algorithm) Stats {
	st := Stats{Name: a.prog.Name}
	ops := map[string]bool{}
	var countBody func(stmts []Stmt) int
	var scanExpr func(x Expr)
	scanExpr = func(x Expr) {
		switch e := x.(type) {
		case *Call:
			switch e.Fn {
			case "map", "reduce", "filter", "sort", "random", "concat", "extract", "scatter", "topk", "pairs":
				ops[e.Fn] = true
			}
			for _, a := range e.Args {
				scanExpr(a)
			}
		case *Binary:
			scanExpr(e.L)
			scanExpr(e.R)
		case *Unary:
			scanExpr(e.X)
		case *Member:
			scanExpr(e.X)
		case *IndexExpr:
			scanExpr(e.X)
			scanExpr(e.I)
		}
	}
	countBody = func(stmts []Stmt) int {
		n := 0
		for _, s := range stmts {
			n++
			switch st := s.(type) {
			case *DeclStmt:
				if st.Decl.Init != nil {
					scanExpr(st.Decl.Init)
				}
			case *AssignStmt:
				scanExpr(st.Value)
			case *ReturnStmt:
				if st.Value != nil {
					scanExpr(st.Value)
				}
			case *IfStmt:
				scanExpr(st.Cond)
				n += countBody(st.Then)
				n += countBody(st.Else)
			case *ExprStmt:
				scanExpr(st.X)
			}
		}
		return n
	}
	for _, fn := range a.prog.Funcs {
		lines := countBody(fn.Body) + 1 // +1 for the signature
		if fn.Name == "encode" || fn.Name == "decode" {
			st.LogicLines += lines
		} else {
			st.UDFLines += lines
		}
	}
	st.LogicLines += len(a.prog.Params) + len(a.prog.Globals)
	st.CommonOperators = len(ops)
	for op := range ops {
		st.OperatorNames = append(st.OperatorNames, op)
	}
	sort.Strings(st.OperatorNames)
	return st
}
