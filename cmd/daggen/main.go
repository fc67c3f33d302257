// Command daggen generates parallel task graphs of the paper's three
// families and writes them as JSON or Graphviz DOT.
//
// Usage:
//
//	daggen -family random -tasks 20 -width 0.5 -regularity 0.8 -density 0.2 -jump 2 -format dot
//	daggen -family fft -k 3 -format json
//	daggen -family strassen -seed 7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"ptgsched"
	"ptgsched/internal/cli"
)

func main() { cli.Main("daggen", run) }

// run executes one daggen invocation, writing the graph to w or to -out.
// The family and the format are checked before -out is created, so a bad
// invocation leaves no file behind.
func run(argv []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("daggen", flag.ContinueOnError)
	var (
		family     = fs.String("family", "random", "random, fft or strassen")
		tasks      = fs.Int("tasks", 20, "task count (random family)")
		width      = fs.Float64("width", 0.5, "width parameter (random family)")
		regularity = fs.Float64("regularity", 0.8, "regularity parameter (random family)")
		density    = fs.Float64("density", 0.2, "density parameter (random family)")
		jump       = fs.Int("jump", 1, "jump parameter (random family)")
		k          = fs.Int("k", 3, "FFT exponent: 2^k points (fft family)")
		seed       = fs.Int64("seed", 1, "random seed")
		format     = fs.String("format", "json", "output format: json or dot")
		out        = fs.String("out", "", "output file (default stdout)")
	)
	if ok, err := cli.Parse(fs, argv, w); !ok {
		return err
	}

	var write func(w io.Writer, g *ptgsched.Graph) error
	switch strings.ToLower(*format) {
	case "json":
		write = func(w io.Writer, g *ptgsched.Graph) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(g)
		}
	case "dot":
		write = func(w io.Writer, g *ptgsched.Graph) error { return g.WriteDOT(w) }
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	r := rand.New(rand.NewSource(*seed))
	var g *ptgsched.Graph
	switch strings.ToLower(*family) {
	case "random":
		g = ptgsched.RandomPTG(ptgsched.RandomConfig{
			Tasks: *tasks, Width: *width, Regularity: *regularity,
			Density: *density, Jump: *jump,
		}, r)
	case "fft":
		g = ptgsched.FFTPTG(*k, r)
	case "strassen":
		g = ptgsched.StrassenPTG(r)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}

	if *out == "" {
		return write(w, g)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f, g)
}
