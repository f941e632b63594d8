package infer

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// FuzzParseDecimal holds the fast parser to strconv.ParseFloat bit for bit:
// whatever it accepts, strconv accepts with the same float64, and whatever
// it declines goes to strconv unchanged. scanDecimal's prefix must parse as
// parseDecimal parses the prefix alone. The committed corpus under
// testdata/fuzz holds the edge cases: signed zeros, subnormals, the largest
// finite value, 19 and 20 significant digits, 2^53±1 and the table's
// exponent bounds.
func FuzzParseDecimal(f *testing.F) {
	f.Add("3.0517578125")
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseDecimal([]byte(s))
		want, err := strconv.ParseFloat(s, 64)
		if ok {
			if err != nil {
				t.Fatalf("parseDecimal accepted %q (%v), strconv rejects it: %v", s, got, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q: parseDecimal %v (%#x) != strconv %v (%#x)",
					s, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if v, n, ok := scanDecimal([]byte(s)); ok {
			p, pok := parseDecimal([]byte(s[:n]))
			if !pok || math.Float64bits(p) != math.Float64bits(v) {
				t.Fatalf("%q: prefix %q scans to %v but parses to %v, %v", s, s[:n], v, p, pok)
			}
		}
	})
}

// TestParseDecimalTakesShortestForms proves the fast path is the common
// path: the shortest round-trip spelling of normal float64s — what clients
// and strconv.FormatFloat write — parses exactly, and almost never needs the
// fallback. (Eisel–Lemire declines, for one, a 17-digit mantissa whose
// quotient by a small power of ten is exactly a float64, such as
// 2.5821090619461415e+15.)
func TestParseDecimalTakesShortestForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tried, declined := 0, 0
	for i := 0; i < 20000; i++ {
		var x float64
		switch i % 3 {
		case 0: // any normal magnitude
			x = math.Float64frombits(rng.Uint64() &^ (1 << 63))
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0x1p-1022 {
				continue
			}
		case 1: // feature-like values
			x = rng.NormFloat64() * 1000
		default: // short decimals
			x = float64(rng.Intn(2000000)-1000000) / 1000
		}
		for _, s := range []string{
			strconv.FormatFloat(x, 'g', -1, 64),
			strconv.FormatFloat(x, 'e', -1, 64),
		} {
			tried++
			got, ok := parseDecimal([]byte(s))
			if !ok {
				declined++
				continue
			}
			if math.Float64bits(got) != math.Float64bits(x) {
				t.Fatalf("%q parsed to %v, want %v", s, got, x)
			}
		}
	}
	if declined*1000 > tried {
		t.Fatalf("%d of %d shortest spellings fell back to strconv", declined, tried)
	}
}

// TestParseDecimalDeclines pins inputs that must reach strconv.
func TestParseDecimalDeclines(t *testing.T) {
	for _, s := range []string{
		"", "-", "+", ".5", "5.", "1e", "1e+", "inf", "NaN", "0x1p-2", "1_0",
		" 1", "1 ", "12345678901234567890", "4.9e-324", "1e400", "1.7976931348623159e308",
	} {
		if v, ok := parseDecimal([]byte(s)); ok {
			t.Errorf("%q accepted as %v", s, v)
		}
	}
}
