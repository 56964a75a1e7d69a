// Package suites defines the 122-benchmark registry mirroring Table I of
// the paper: six suites (BioInfoMark, BioMetricsWorkload, CommBench,
// MediaBench, MiBench, SPEC CPU2000) with one entry per benchmark/input
// pair. Each entry is backed by a workload kernel whose algorithm matches
// the benchmark's domain (sequence alignment for clustalw, hash-chain
// compression for gzip/bzip2, dependent pointer chasing for mcf, ...),
// parameterized so that working-set sizes, instruction mixes and branch
// behaviours are spread the way the paper's suites are.
//
// PaperICountM preserves Table I's dynamic instruction counts (millions)
// as documentation and as relative trace-length scale factors; the
// reproduction runs each benchmark for a configurable budget instead of
// the full count.
package suites

import (
	"fmt"
	"path/filepath"
	"strings"

	"mica/internal/kernels"
	"mica/internal/trace"
	"mica/internal/vm"
)

// Suite names, as in Table I.
const (
	BioInfoMark        = "BioInfoMark"
	BioMetricsWorkload = "BioMetricsWorkload"
	CommBench          = "CommBench"
	MediaBench         = "MediaBench"
	MiBench            = "MiBench"
	SPEC               = "SPEC2000"
)

// SuiteNames lists the six suites in Table I order.
var SuiteNames = []string{
	BioInfoMark, BioMetricsWorkload, CommBench, MediaBench, MiBench, SPEC,
}

// Benchmark is one characterizable workload: a Table I row backed by an
// embedded kernel, or an external recorded trace (TracePath set) that
// replays through the same pipelines.
type Benchmark struct {
	Suite   string
	Program string
	Input   string
	// Kernel names the backing workload kernel.
	Kernel string
	// Size and Variant parameterize the kernel.
	Size    int
	Variant int
	// PaperICountM is the dynamic instruction count from Table I, in
	// millions.
	PaperICountM int64
	// TracePath, when set, backs the benchmark with a recorded trace
	// file instead of an embedded kernel: Source replays the file and
	// Instantiate refuses (there is no machine to build).
	TracePath string
}

// Name returns the canonical "suite/program/input" identifier.
func (b Benchmark) Name() string {
	return fmt.Sprintf("%s/%s/%s", b.Suite, b.Program, b.Input)
}

// seed derives a deterministic per-benchmark input seed from the name.
func (b Benchmark) seed() uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(b.Name()) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Instantiate builds a ready-to-run machine for the benchmark. It only
// works for kernel-backed entries; trace-backed benchmarks have no
// machine and must be run through Source.
func (b Benchmark) Instantiate() (*vm.Machine, error) {
	if b.TracePath != "" {
		return nil, fmt.Errorf("suites: %s: trace-backed benchmark has no embedded VM (use Source)", b.Name())
	}
	k, err := kernels.ByName(b.Kernel)
	if err != nil {
		return nil, fmt.Errorf("suites: %s: %w", b.Name(), err)
	}
	return k.Instantiate(kernels.Params{Size: b.Size, Seed: b.seed(), Variant: b.Variant})
}

// Source returns a fresh event source for the benchmark: a ready-to-run
// machine for kernel-backed entries, a trace replay for trace-backed
// ones. Every call returns an independent source positioned at the
// start of the execution, which is what the two-pass reduced pipeline
// relies on.
func (b Benchmark) Source() (trace.Source, error) {
	if b.TracePath != "" {
		r, err := trace.Open(b.TracePath)
		if err != nil {
			return nil, fmt.Errorf("suites: %s: %w", b.Name(), err)
		}
		return r, nil
	}
	return b.Instantiate()
}

// TraceBenchmark builds a trace-backed registry entry for the recorded
// trace at path. name may be a full canonical "suite/program/input"
// identifier; anything else becomes "trace/<name>/<file base>" so trace
// entries sort and render alongside the kernel-backed rows.
func TraceBenchmark(name, path string) Benchmark {
	b := Benchmark{TracePath: path}
	if parts := strings.Split(name, "/"); len(parts) == 3 &&
		parts[0] != "" && parts[1] != "" && parts[2] != "" {
		b.Suite, b.Program, b.Input = parts[0], parts[1], parts[2]
		return b
	}
	if name == "" {
		name = "recorded"
	}
	b.Suite, b.Program, b.Input = "trace", name, filepath.Base(path)
	return b
}

// row builds one kernel-backed Table I registry entry.
func row(suite, program, input, kernel string, size, variant int, icountM int64) Benchmark {
	return Benchmark{
		Suite: suite, Program: program, Input: input,
		Kernel: kernel, Size: size, Variant: variant, PaperICountM: icountM,
	}
}

// all is the Table I registry. Order follows the paper's table.
var all = []Benchmark{
	// --- BioInfoMark (bioinformatics) ---
	row(BioInfoMark, "blast", "protein", "kmercount", 262144, 1, 81092),
	row(BioInfoMark, "ce", "ce", "smithwaterman", 2048, 0, 4816),
	row(BioInfoMark, "clustalw", "clustalw", "smithwaterman", 16384, 0, 884859),
	row(BioInfoMark, "fasta", "fasta34", "smithwaterman", 8192, 0, 759654),
	row(BioInfoMark, "glimmer", "004663", "kmercount", 65536, 0, 26610),
	row(BioInfoMark, "hmmer", "build", "likelihood", 2048, 0, 321),
	row(BioInfoMark, "hmmer", "calibrate", "likelihood", 8192, 1, 43048),
	row(BioInfoMark, "hmmer", "search-artemia", "smithwaterman", 1024, 0, 47),
	row(BioInfoMark, "hmmer", "search-sprot", "smithwaterman", 65536, 0, 1785862),
	row(BioInfoMark, "phylip", "dnapenny", "parsimony", 512, 0, 184557),
	row(BioInfoMark, "phylip", "promlk", "likelihood", 4096, 1, 557514),
	row(BioInfoMark, "predator", "predator", "likelihood", 16384, 0, 804859),

	// --- BioMetricsWorkload (biometrics) ---
	row(BioMetricsWorkload, "csu", "Bayesian-project", "matmul", 48, 1, 403313),
	row(BioMetricsWorkload, "csu", "Bayesian-train", "matmul", 96, 1, 28158),
	row(BioMetricsWorkload, "csu", "PreprocessNormalize", "susan", 384, 1, 4059),
	row(BioMetricsWorkload, "csu", "SubspaceProject-LDA", "matmul", 64, 1, 6054),
	row(BioMetricsWorkload, "csu", "SubspaceProject-PCA", "matmul", 80, 1, 6098),
	row(BioMetricsWorkload, "csu", "SubspaceTrain-LDA", "neural", 512, 0, 51297),
	row(BioMetricsWorkload, "csu", "SubspaceTrain-PCA", "neural", 1024, 0, 41729),
	row(BioMetricsWorkload, "speak", "decode", "neural", 256, 0, 46648),

	// --- CommBench (telecommunication) ---
	row(CommBench, "cast", "decode", "blowfish", 8192, 0, 130),
	row(CommBench, "cast", "encode", "blowfish", 16384, 0, 130),
	row(CommBench, "drr", "drr", "drr", 256, 0, 235),
	row(CommBench, "frag", "frag", "fragment", 65536, 0, 49),
	row(CommBench, "jpeg", "decode", "huffman", 4096, 0, 238),
	row(CommBench, "jpeg", "encode", "dct8", 2048, 0, 339),
	row(CommBench, "reed", "decode", "reedsolomon", 16384, 1, 1298),
	row(CommBench, "reed", "encode", "reedsolomon", 32768, 0, 912),
	row(CommBench, "rtr", "rtr", "pointerchase", 16384, 0, 1137),
	row(CommBench, "tcp", "tcp", "crc32", 16384, 0, 58),
	row(CommBench, "zip", "decode", "huffman", 2048, 0, 50),
	row(CommBench, "zip", "encode", "lz77", 65536, 0, 322),

	// --- MediaBench (multimedia) ---
	row(MediaBench, "epic", "test1", "stencil5", 64, 0, 205),
	row(MediaBench, "epic", "test2", "stencil5", 128, 0, 2296),
	row(MediaBench, "unepic", "test1", "huffman", 1024, 0, 35),
	row(MediaBench, "unepic", "test2", "huffman", 2048, 0, 876),
	row(MediaBench, "g721", "decode", "adpcm", 32768, 1, 323),
	row(MediaBench, "g721", "encode", "adpcm", 32768, 0, 343),
	row(MediaBench, "ghostscript", "gs", "susan", 512, 0, 868),
	row(MediaBench, "mesa", "mipmap", "matmul", 32, 0, 32),
	row(MediaBench, "mesa", "osdemo", "nbody", 128, 0, 10),
	row(MediaBench, "mesa", "texgen", "matmul", 128, 0, 86),
	row(MediaBench, "mpeg2", "decode", "huffman", 8192, 0, 149),
	row(MediaBench, "mpeg2", "encode", "motionest", 2048, 0, 1528),

	// --- MiBench (embedded) ---
	row(MiBench, "CRC32", "large", "crc32", 131072, 0, 612),
	row(MiBench, "FFT", "fft-large", "fft", 4096, 0, 237),
	row(MiBench, "FFT", "fftinv-large", "fft", 8192, 0, 217),
	row(MiBench, "adpcm", "rawcaudio", "adpcm", 65536, 0, 758),
	row(MiBench, "adpcm", "rawdaudio", "adpcm", 65536, 1, 639),
	row(MiBench, "basicmath", "large", "nbody", 64, 0, 1523),
	row(MiBench, "bitcount", "large", "bitcount", 16384, 0, 681),
	row(MiBench, "blowfish", "decode", "blowfish", 8192, 0, 495),
	row(MiBench, "blowfish", "encode", "blowfish", 8192, 1, 498),
	row(MiBench, "dijkstra", "large", "dijkstra", 256, 0, 252),
	row(MiBench, "ghostscript", "large", "susan", 448, 0, 868),
	row(MiBench, "ispell", "large", "stringsearch", 65536, 0, 1027),
	row(MiBench, "jpeg", "cjpeg", "dct8", 4096, 0, 121),
	row(MiBench, "jpeg", "djpeg", "huffman", 4096, 1, 24),
	row(MiBench, "lame", "large", "fft", 2048, 0, 1199),
	row(MiBench, "mad", "large", "fft", 1024, 0, 345),
	row(MiBench, "patricia", "large", "pointerchase", 65536, 0, 399),
	row(MiBench, "pgp", "decode", "bignum", 64, 0, 111),
	row(MiBench, "pgp", "encode", "bignum", 128, 0, 48),
	row(MiBench, "qsort", "large", "qsort", 32768, 0, 512),
	row(MiBench, "rsynth", "say-large", "fft", 512, 0, 775),
	row(MiBench, "sha", "large", "sha", 2048, 0, 114),
	row(MiBench, "susan", "corners-large", "susan", 384, 0, 29),
	row(MiBench, "susan", "edges-large", "susan", 256, 0, 73),
	row(MiBench, "susan", "smoothing-large", "susan", 512, 1, 300),
	row(MiBench, "tiff", "2bw", "susan", 320, 1, 143),
	row(MiBench, "tiff", "2rgba", "fragment", 131072, 1, 268),
	row(MiBench, "tiff", "dither", "susan", 320, 0, 1228),
	row(MiBench, "tiff", "median", "susan", 256, 1, 763),
	row(MiBench, "typeset", "lout", "stringsearch", 131072, 1, 609),

	// --- SPEC CPU2000 (general purpose) ---
	row(SPEC, "ammp", "ref", "nbody", 512, 0, 388534),
	row(SPEC, "applu", "ref", "stencil5", 96, 0, 336798),
	row(SPEC, "apsi", "ref", "stencil5", 160, 0, 361955),
	row(SPEC, "art", "ref-110", "neural", 1024, 0, 77067),
	row(SPEC, "art", "ref-470", "neural", 2048, 0, 84660),
	row(SPEC, "bzip2", "graphic", "lz77", 131072, 0, 157003),
	row(SPEC, "bzip2", "program", "lz77", 65536, 0, 136389),
	row(SPEC, "bzip2", "source", "lz77", 98304, 0, 122267),
	row(SPEC, "crafty", "ref", "interp", 16384, 0, 194311),
	row(SPEC, "eon", "cook", "nbody", 256, 0, 100552),
	row(SPEC, "eon", "kajiya", "nbody", 384, 0, 131268),
	row(SPEC, "eon", "rushmeier", "nbody", 512, 0, 73139),
	row(SPEC, "equake", "ref", "neural", 768, 0, 158071),
	row(SPEC, "facerec", "ref", "matmul", 112, 0, 249735),
	row(SPEC, "fma3d", "ref", "nbody", 1024, 0, 312960),
	row(SPEC, "galgel", "ref", "matmul", 128, 0, 326916),
	row(SPEC, "gap", "ref", "interp", 32768, 0, 310323),
	row(SPEC, "gcc", "166", "interp", 8192, 0, 46614),
	row(SPEC, "gcc", "200", "interp", 12288, 0, 106339),
	row(SPEC, "gcc", "expr", "interp", 16384, 0, 11847),
	row(SPEC, "gcc", "integrate", "interp", 20480, 0, 13019),
	row(SPEC, "gcc", "scilab", "interp", 24576, 0, 60784),
	row(SPEC, "gzip", "graphic", "lz77", 49152, 0, 113400),
	row(SPEC, "gzip", "log", "lz77", 16384, 0, 42506),
	row(SPEC, "gzip", "program", "lz77", 32768, 0, 161726),
	row(SPEC, "gzip", "random", "lz77", 131072, 0, 91961),
	row(SPEC, "gzip", "source", "lz77", 24576, 0, 84366),
	row(SPEC, "lucas", "ref", "fft", 8192, 0, 134753),
	row(SPEC, "mcf", "ref", "pointerchase", 1048576, 0, 59800),
	row(SPEC, "mesa", "ref", "matmul", 96, 0, 314449),
	row(SPEC, "mgrid", "ref", "stencil5", 128, 0, 440934),
	row(SPEC, "parser", "ref", "stringsearch", 131072, 0, 530784),
	row(SPEC, "perlbmk", "splitmail.535", "interp", 24576, 0, 69857),
	row(SPEC, "perlbmk", "splitmail.704", "interp", 24576, 0, 73966),
	row(SPEC, "perlbmk", "splitmail.850", "interp", 28672, 0, 142509),
	row(SPEC, "perlbmk", "splitmail.957", "interp", 28672, 0, 122893),
	row(SPEC, "perlbmk", "diffmail", "interp", 12288, 0, 43327),
	row(SPEC, "perlbmk", "makerand", "interp", 4096, 0, 2055),
	row(SPEC, "perlbmk", "perfect", "interp", 8192, 0, 29791),
	row(SPEC, "sixtrack", "ref", "stencil5", 224, 0, 452446),
	row(SPEC, "swim", "ref", "stencil5", 256, 0, 221868),
	row(SPEC, "twolf", "ref", "dijkstra", 384, 0, 397222),
	row(SPEC, "vortex", "ref1", "drr", 2048, 0, 129793),
	row(SPEC, "vortex", "ref2", "drr", 3072, 0, 151475),
	row(SPEC, "vortex", "ref3", "drr", 4096, 0, 145113),
	row(SPEC, "vpr", "place", "qsort", 49152, 0, 117001),
	row(SPEC, "vpr", "route", "dijkstra", 448, 0, 82351),
	row(SPEC, "wupwise", "ref", "matmul", 120, 0, 337770),
}

// All returns the 122 benchmarks in Table I order. The slice is a copy;
// callers may reorder it.
func All() []Benchmark {
	out := make([]Benchmark, len(all))
	copy(out, all)
	return out
}

// BySuite returns the benchmarks of one suite in table order.
func BySuite(suite string) []Benchmark {
	var out []Benchmark
	for _, b := range all {
		if b.Suite == suite {
			out = append(out, b)
		}
	}
	return out
}

// ByName finds a benchmark by its canonical name.
func ByName(name string) (Benchmark, error) {
	for _, b := range all {
		if b.Name() == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("suites: unknown benchmark %q", name)
}

// Select resolves a comma-separated list of benchmark names, as the
// CLIs' -bench flag takes it, or the whole registry when the list is
// empty.
func Select(list string) ([]Benchmark, error) {
	if list == "" {
		return All(), nil
	}
	var bs []Benchmark
	for _, n := range strings.Split(list, ",") {
		b, err := ByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// Count returns the number of registered benchmarks (122).
func Count() int { return len(all) }
