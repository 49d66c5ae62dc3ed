// Command compllc is the CompLL DSL compiler: it checks, inspects, runs, and
// generates Go code from .cll gradient compression programs (paper §4).
//
// Usage:
//
//	compllc check <file.cll>          parse and validate a program
//	compllc stats <file.cll>          Table 5-style implementation metrics
//	compllc demo <file.cll>           compile and round-trip a sample gradient
//	compllc gen [-pkg name] <file.cll>  emit generated Go on stdout
//	compllc genall -dir <dir> [-pkg name]  regenerate all bundled programs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hipress/internal/compll"
	"hipress/internal/compress"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = withProgram(os.Args[2:], func(alg *compll.Algorithm) error {
			fmt.Printf("%s: OK (%d functions, %d globals, %d param blocks)\n",
				alg.Name(), len(alg.Program().Funcs), len(alg.Program().Globals), len(alg.Program().Params))
			return nil
		})
	case "stats":
		err = withProgram(os.Args[2:], func(alg *compll.Algorithm) error {
			st := compll.StatsOf(alg)
			fmt.Printf("algorithm:        %s\n", st.Name)
			fmt.Printf("logic lines:      %d\n", st.LogicLines)
			fmt.Printf("udf lines:        %d\n", st.UDFLines)
			fmt.Printf("common operators: %d (%s)\n", st.CommonOperators, strings.Join(st.OperatorNames, ", "))
			return nil
		})
	case "demo":
		err = withProgram(os.Args[2:], demo)
	case "gen":
		err = genCmd(os.Args[2:])
	case "genall":
		err = genAllCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compllc:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: compllc {check|stats|demo|gen|genall} [flags] [file.cll]")
}

func withProgram(args []string, fn func(*compll.Algorithm) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one .cll file argument")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	name := strings.TrimSuffix(filepath.Base(args[0]), ".cll")
	alg, err := compll.Compile(name, string(src))
	if err != nil {
		return err
	}
	return fn(alg)
}

func demo(alg *compll.Algorithm) error {
	params := map[string]float64{"bitwidth": 2, "ratio": 0.25, "tau": 0.5, "factor": 0.3, "sparsity": 0.2}
	c := alg.Compressor(params, 42)
	grad := []float32{1.5, -0.25, 0.75, -2, 0.1, 0, 3, -1}
	payload, err := compress.Encode(c, grad)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	dec, err := compress.Decode(c, payload, len(grad))
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	fmt.Printf("input:   %v\n", grad)
	fmt.Printf("payload: %d bytes (%.1f%% of input)\n", len(payload), 100*float64(len(payload))/float64(4*len(grad)))
	fmt.Printf("decoded: %v\n", dec)
	return nil
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	pkg := fs.String("pkg", "gen", "package name for the generated code")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return withProgram(fs.Args(), func(alg *compll.Algorithm) error {
		src, err := compll.Gen(alg.Program(), *pkg)
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil
	})
}

func genAllCmd(args []string) error {
	fs := flag.NewFlagSet("genall", flag.ExitOnError)
	dir := fs.String("dir", "internal/compll/gen", "output directory")
	pkg := fs.String("pkg", "gen", "package name for the generated code")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algs, err := compll.BuiltinAlgorithms()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, "prelude.go"), []byte(compll.GenPrelude(*pkg)), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(algs))
	for n := range algs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		src, err := compll.Gen(algs[n].Program(), *pkg)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		out := filepath.Join(*dir, "gen_"+n+".go")
		if err := os.WriteFile(out, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	return nil
}
