package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the simulator packages host time is split across, in report
// order. kernel.sweep is the part of kernel defined in sweep.go; gc is Go
// runtime work with no repository frame on its stack (background GC,
// scheduler, profiler); other is every remaining repository frame
// (workload, harness, expt, telemetry, the benchmark itself, ...).
var layers = []string{
	"sim", "bus", "kernel.sweep", "kernel", "vm", "tmem", "shadow",
	"alloc", "quarantine", "revoke", "ca", "gc", "other",
}

// hostLayers are the repro/internal packages that are layers of their own.
var hostLayers = map[string]bool{
	"sim": true, "bus": true, "kernel": true, "vm": true, "tmem": true, "shadow": true,
	"alloc": true, "quarantine": true, "revoke": true, "ca": true,
}

// layerOf attributes one function frame: its layer, or "" when the frame
// is outside the repository. A frame of repro/internal/<pkg> belongs to
// <pkg> when that is a layer, to kernel.sweep when it is defined in
// kernel's sweep.go, and to other otherwise; a frame of the benchmark
// (package main) belongs to other.
func layerOf(fn, file string) string {
	const internal = "repro/internal/"
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	if !strings.HasPrefix(fn, internal) {
		return ""
	}
	pkg := fn[len(internal):]
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "kernel" && strings.HasSuffix(file, "internal/kernel/sweep.go"):
		return "kernel.sweep"
	case hostLayers[pkg]:
		return pkg
	}
	return "other"
}

// layerProfile is a CPU profile folded onto layers.
type layerProfile struct {
	// NS is CPU nanoseconds per layer; every sample lands in exactly one.
	NS      map[string]int64
	Total   int64
	Samples int
}

// share returns layer's fraction of all sampled CPU time.
func (p layerProfile) share(layer string) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.NS[layer]) / float64(p.Total)
}

// merge adds q's samples to p.
func (p *layerProfile) merge(q layerProfile) {
	if p.NS == nil {
		p.NS = map[string]int64{}
	}
	for l, ns := range q.NS {
		p.NS[l] += ns
	}
	p.Total += q.Total
	p.Samples += q.Samples
}

// attribute decodes a gzipped pprof CPU profile and gives each sample to
// the innermost frame of its stack that layerOf recognises; a stack with
// no repository frame goes to gc.
func attribute(gz []byte) (layerProfile, error) {
	pr, err := decodeProfile(gz)
	if err != nil {
		return layerProfile{}, err
	}
	out := layerProfile{NS: map[string]int64{}}
	for _, s := range pr.samples {
		layer := "gc"
	stack:
		for _, loc := range s.locs {
			for _, fid := range pr.locLines[loc] { // innermost inlined frame first
				f := pr.funcs[fid]
				if l := layerOf(f.name, f.file); l != "" {
					layer = l
					break stack
				}
			}
		}
		out.NS[layer] += s.value
		out.Total += s.value
		out.Samples++
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) the attribution
// needs: samples, locations with their (inlined) lines, functions and the
// string table.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]function
}

type sample struct {
	locs  []uint64 // leaf first
	value int64
}

type function struct{ name, file string }

// Field numbers from profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fSampleLocation     = 1
	fSampleValue        = 2
	fValueTypeType      = 1
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunction       = 1
	fFunctionID         = 1
	fFunctionName       = 2
	fFunctionFile       = 4
)

// decodeProfile parses a gzipped profile.proto message. Sample values are
// taken from the "cpu" sample type (the last one when none is named so).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawFunc struct{ name, file int64 }
	var (
		strs      []string
		typeIdx   []int64
		rawSample []struct {
			locs []uint64
			vals []int64
		}
		rawFuncs = map[uint64]rawFunc{}
	)
	pr := &profile{locLines: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileStringTable:
			strs = append(strs, string(b))
		case fProfileSampleType:
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s struct {
				locs []uint64
				vals []int64
			}
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case fSampleLocation:
					return varints(v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(v, p, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			rawSample = append(rawSample, s)
			return err
		case fProfileLocation:
			var id uint64
			var fids []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			pr.locLines[id] = fids
			return err
		case fProfileFunction:
			var id uint64
			var f rawFunc
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					f.name = int64(v)
				case fFunctionFile:
					f.file = int64(v)
				}
				return nil
			})
			rawFuncs[id] = f
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for id, f := range rawFuncs {
		name, err := str(f.name)
		if err != nil {
			return nil, err
		}
		file, err := str(f.file)
		if err != nil {
			return nil, err
		}
		pr.funcs[id] = function{name: name, file: file}
	}
	vi := len(typeIdx) - 1
	for i, t := range typeIdx {
		if name, _ := str(t); name == "cpu" {
			vi = i
		}
	}
	for _, s := range rawSample {
		if vi < 0 || vi >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		pr.samples = append(pr.samples, sample{locs: s.locs, value: s.vals[vi]})
	}
	return pr, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its scalar value (varint, fixed32, fixed64) or its bytes
// (length-delimited).
func fields(b []byte, fn func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var p []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			p = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, p); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, which encoders write either
// one value per field (p == nil) or packed into one byte string.
func varints(v uint64, p []byte, fn func(uint64)) error {
	if p == nil {
		fn(v)
		return nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		p = p[n:]
	}
	return nil
}
