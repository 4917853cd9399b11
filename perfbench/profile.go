package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (a gzipped
// profile.proto message) and attributes every sample to a layer. Only
// the fields attribution needs are decoded: samples with their location
// IDs and values, locations with their line entries, functions, and the
// string table.

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location ID → function IDs, innermost (inlined) first
	functions map[uint64]string   // function ID → name
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64  // [samples/count, cpu/nanoseconds] for a CPU profile
}

// parseProfile decodes a (possibly gzipped) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{}
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcName {
		if idx < 0 || idx >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks one protobuf message. Varint fields arrive as v,
// length-delimited fields as b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field in either encoding: one
// value per field (b == nil) or packed into one length-delimited field.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// uvarint decodes one varint, returning its length (0 when malformed).
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

// layerOf maps a function name to the layer that owns it, or "" for a
// function outside the named layers.
func layerOf(fn string) string {
	const prefix = "kard/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if strings.HasPrefix(rest, "service/journal.") {
		return "journal"
	}
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return ""
	}
	name := rest[:end]
	for _, l := range selfLayers {
		if l == name {
			return name
		}
	}
	return ""
}

// schedFrames are the runtime scheduler's own functions: a sample with
// no layer frame whose stack runs through one of them is scheduling
// work (finding, parking, and waking goroutines).
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.goexit0": true, "runtime.gosched_m": true, "runtime.goschedImpl": true,
	"runtime.exitsyscall0": true, "runtime.stopm": true, "runtime.startm": true,
	"runtime.wakep": true, "runtime.mstart1": true, "runtime.mcall": true,
}

// handoffPrefixes name the runtime's channel, park and lock code: a sim
// sample whose leaf is one of these is a goroutine hand-off between the
// engine's scheduler and a simulated thread.
var handoffPrefixes = []string{
	"runtime.chan", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.park", "runtime.lock", "runtime.unlock",
	"runtime.futex", "runtime.notewakeup", "runtime.wakep", "runtime.startm",
	"runtime.semacquire", "runtime.semrelease", "runtime.runqput",
	"runtime.osyield", "runtime.procyield", "runtime.mcall", "sync.",
}

// attribution is the CPU profile split by layer.
type attribution struct {
	selfNs     map[string]int64 // layer (or runtime.sched, other) → CPU ns
	selfCount  map[string]int64 // same split, in samples
	handoffNs  int64            // sim samples with a hand-off leaf
	totalNs    int64
	totalCount int64
}

// attribute charges each sample to the innermost frame that belongs to
// a named layer. Samples without one go to "runtime.sched" when the
// scheduler is on the stack and to "other" otherwise.
func attribute(p *profile) attribution {
	a := attribution{selfNs: map[string]int64{}, selfCount: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		count, ns := s.values[0], s.values[1]
		a.totalCount += count
		a.totalNs += ns
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				frames = append(frames, p.functions[fid])
			}
		}
		layer := ""
		for _, f := range frames {
			if layer = layerOf(f); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = "other"
			for _, f := range frames {
				if schedFrames[f] {
					layer = "runtime.sched"
					break
				}
			}
		}
		a.selfNs[layer] += ns
		a.selfCount[layer] += count
		if layer == "sim" && len(frames) > 0 && isHandoff(frames[0]) {
			a.handoffNs += ns
		}
	}
	return a
}

func isHandoff(fn string) bool {
	for _, p := range handoffPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
