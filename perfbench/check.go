package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"

	"pradram/internal/sim"
)

// digest hashes every field of v, exported or not, following pointers and
// keeping floats bit-exact (the outputs it hashes hold no maps), so two digests agree exactly when the values
// are bit-identical. (fmt's %v would print pointer addresses for the
// histogram fields of cache.Stats, and encoding/json skips unexported
// fields.)
func digest(v any) string {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Invalid:
		put(0)
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		hashValue(h, v.Elem())
	default:
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}

// defaultSeed is the seed whose output digests are committed below.
const defaultSeed = 1

// goldenDigests pins each workload's output digest for the default seed,
// keyed by the simulator's model version. A deliberate model change bumps
// sim.ModelVersion, which leaves the old entries unused until new digests
// are recorded for the new version (print them with -print-digests).
var goldenDigests = map[string]map[string]string{
	"pradram-model-v3": {
		"mix2_pra":          "2412f9240fbd61ab9a5761220da61534",
		"alone_linkedlist":  "7f5355ab8e1985395a35aaec7c233df8",
		"replay_lbm_pra":    "7a739927eecf73e3b1322df06247e226",
		"campaign_ablation": "ad2f1a7b3ec9a5d1b7cd03e605af61ca",
	},
}

// outputCheck compares one repetition's digest against the run's first
// repetition and, for the default seed, against the committed digest.
type outputCheck struct {
	workload string
	seed     uint64
	first    string
}

func (c *outputCheck) check(d string) error {
	if c.first == "" {
		c.first = d
		if c.seed == defaultSeed {
			if want, ok := goldenDigests[sim.ModelVersion][c.workload]; ok && want != d {
				return fmt.Errorf("%s seed %d: output digest %s, committed digest for %s is %s",
					c.workload, c.seed, d, sim.ModelVersion, want)
			}
		}
		return nil
	}
	if d != c.first {
		return fmt.Errorf("%s seed %d: output digest %s differs from the first repetition's %s",
			c.workload, c.seed, d, c.first)
	}
	return nil
}
