package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The module has no dependencies, so this file reads the gzip'd
// profile.proto that runtime/pprof writes with a minimal protobuf decoder:
// only the fields needed to charge each sample to a function.

// cpuProfile is the part of a pprof profile the layer split needs.
type cpuProfile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name's string-table index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	count     int64    // value[0]: the number of samples
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			values := 0
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return eachVarint(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case fSampleValue:
					return eachVarint(v, b, func(x uint64) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and its value: v for varint fields, b for length-delimited ones.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, packed (b) or not (v).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// shares charges every sample to the innermost frame that belongs to this
// repository (see bucket) and returns each bucket's share of all samples,
// plus the sample count. Samples with no such frame — garbage collection,
// the scheduler, standard-library plumbing nobody here called — go to
// "runtime".
func (p *cpuProfile) shares() (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.count
		counts[p.owner(s)] += s.count
	}
	out := map[string]float64{}
	for b, c := range counts {
		out[b] = float64(c) / float64(total)
	}
	return out, total
}

func (p *cpuProfile) owner(s profSample) string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			name := ""
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				name = p.strings[i]
			}
			if b := bucket(name); b != "" {
				return b
			}
		}
	}
	return "runtime"
}

// bucket maps a profiled function name to the layer it belongs to: the
// first path element under cityhunter/internal/ (so obs/monitor is obs),
// "cityhunter" for the root package, "bench" for this program's own code,
// "other" for the rest of the repository, and "" for anything outside it.
func bucket(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: pkg.F[...]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "cityhunter/bench": // the binary, or its test
		return "bench"
	case pkg == "cityhunter":
		return "cityhunter"
	case strings.HasPrefix(pkg, "cityhunter/internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "cityhunter/internal/"), "/")
		return layer
	case strings.HasPrefix(pkg, "cityhunter/"):
		return "other"
	}
	return ""
}
