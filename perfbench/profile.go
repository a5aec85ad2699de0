package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayer is one bucket of the host self-time split.
type cpuLayer struct{ name, metric string }

// cpuLayers are the buckets a CPU sample can land in: every repo package
// the workloads reach (translator runs on no workload), the benchmark's
// own code, socket and HTTP plumbing with no repo frame, GC workers, and
// everything else (scheduler, idle goroutine handoff).
var cpuLayers = func() []cpuLayer {
	var ls []cpuLayer
	for _, p := range []string{"sim", "dsm", "hlrc", "netsim", "mpi", "core", "apps", "microbench",
		"harness", "kdsm", "fleet", "obs", "stats"} {
		ls = append(ls, cpuLayer{p, p + ".cpu_frac"})
	}
	return append(ls,
		cpuLayer{"bench", "bench.cpu_frac"},
		cpuLayer{"net", "net.cpu_frac"},
		cpuLayer{"gc", "runtime.gc_frac"},
		cpuLayer{"sched", "runtime.sched_frac"})
}()

const repoPrefix = "parade/internal/"

// classify names the bucket of one sample from its frames, innermost
// first: the innermost repo frame's package (runtime frames below it
// count to it); else the benchmark's own code; else GC workers; else
// network plumbing; else the scheduler bucket.
func classify(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, repoPrefix) {
			rest := f[len(repoPrefix):]
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	var gc, netw bool
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "main."):
			return "bench"
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"):
			gc = true
		case strings.HasPrefix(f, "net/"), strings.HasPrefix(f, "net."), strings.HasPrefix(f, "internal/poll."):
			netw = true
		}
	}
	switch {
	case gc:
		return "gc"
	case netw:
		return "net"
	}
	return "sched"
}

// layerShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fn := range p.locFuncs[id] {
				frames = append(frames, p.funcName[fn])
			}
		}
		shares[classify(frames)] += float64(s.weight)
		total += float64(s.weight)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// profile is the part of profile.proto the split needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	weight int64    // the first sample value (sample count)
}

// decodeProfile reads the protobuf encoding of a pprof profile: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]int64{}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					if vals := appendVarints(nil, w, v, d); len(vals) > 0 && s.weight == 0 {
						s.weight = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < 0 || int(si) >= len(strs) {
			return nil, errors.New("function name out of the string table")
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks a protobuf message: fn gets the field number, wire
// type, and the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
