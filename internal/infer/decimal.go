package infer

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// Request cells are overwhelmingly plain decimals such as "3.0517578125" or
// "-0.25", and strconv.ParseFloat is general: it handles hex floats, "inf",
// underscores and any digit count. parseDecimal takes the plain case in one
// pass and produces the same correctly rounded float64, or reports that it
// cannot, in which case the caller uses strconv.ParseFloat. That fallback is
// a correctness path, not a mode: any input outside the fast grammar, more
// than 19 significant digits, a result Eisel–Lemire cannot decide, or an
// overflow or subnormal result goes there.

// parseDecimal parses all of s if it matches
// [-+]?digits[.digits][(e|E)[-+]?digits] with at most 19 significant digits.
// ok is false when it does not, or when the value needs the slow path.
func parseDecimal(s []byte) (f float64, ok bool) {
	f, n, ok := scanDecimal(s)
	return f, ok && n == len(s)
}

// scanDecimal parses the plain decimal that starts s and returns its value
// and length; the bytes after it are the caller's to check. ok is false when
// s does not start with one or the value needs the slow path.
func scanDecimal(s []byte) (f float64, n int, ok bool) {
	i := 0
	neg := false
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	var man uint64
	digits, exp10 := 0, 0
	start := i
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		if man == 0 && s[i] == '0' {
			continue // leading zero
		}
		if digits == 19 {
			return 0, 0, false
		}
		man = man*10 + uint64(s[i]-'0')
		digits++
	}
	if i == start {
		return 0, 0, false
	}
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			exp10--
			if man == 0 && s[i] == '0' {
				continue
			}
			if digits == 19 {
				return 0, 0, false
			}
			man = man*10 + uint64(s[i]-'0')
			digits++
		}
		if i == frac {
			return 0, 0, false
		}
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '-' || s[i] == '+') {
			eneg = s[i] == '-'
			i++
		}
		estart := i
		e := 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if e < 10000 { // far outside the table either way
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == estart {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	f, ok = decimalToFloat(man, exp10, neg)
	return f, i, ok
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decimalToFloat returns the float64 nearest to (-1)^neg × man × 10^exp10.
func decimalToFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger's fast path: both operands are exact, and one IEEE multiply or
	// divide rounds their exact product or quotient correctly.
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp10, neg)
}

// The Eisel–Lemire table covers 10^pow10Min .. 10^pow10Max; every float64
// written with at most 19 significant digits has its exponent in range, and
// anything beyond rounds to zero or infinity, which the slow path reports.
const (
	pow10Min = -348
	pow10Max = 347
)

var (
	pow10Once  sync.Once
	pow10Table [pow10Max - pow10Min + 1][2]uint64 // {high, low} words
)

// powersOfTen returns the 128-bit mantissas of 10^q for q in
// [pow10Min, pow10Max], each normalised so its top bit is set and rounded
// down, built once with math/big.
func powersOfTen() *[pow10Max - pow10Min + 1][2]uint64 {
	pow10Once.Do(func() {
		ten := big.NewInt(10)
		mask := new(big.Int).SetUint64(math.MaxUint64)
		var p, v, w big.Int
		for q := pow10Min; q <= pow10Max; q++ {
			abs := q
			if abs < 0 {
				abs = -abs
			}
			p.Exp(ten, big.NewInt(int64(abs)), nil)
			if q >= 0 {
				if l := p.BitLen(); l > 128 {
					v.Rsh(&p, uint(l-128))
				} else {
					v.Lsh(&p, uint(128-l))
				}
			} else {
				// 2^(L-1) <= 10^-q < 2^L makes 2^(L+127) / 10^-q lie in
				// (2^127, 2^128): exactly 128 bits once floored.
				w.Lsh(big.NewInt(1), uint(p.BitLen()+127))
				v.Quo(&w, &p)
			}
			e := &pow10Table[q-pow10Min]
			e[1] = w.And(&v, mask).Uint64()
			e[0] = w.Rsh(&v, 64).Uint64()
		}
	})
	return &pow10Table
}

// eiselLemire converts man × 10^exp10 (man != 0) with the Eisel–Lemire
// algorithm (https://nigeltao.github.io/blog/2020/eisel-lemire.html): one
// 64×128-bit multiply by the truncated power of ten almost always fixes the
// correctly rounded 53-bit mantissa. ok is false when the truncation leaves
// the rounding undecided, and when the result is subnormal, infinite or
// outside the table.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &powersOfTen()[exp10-pow10Min]

	// Normalise the mantissa; 217706/2^16 approximates log2(10), which puts
	// the binary exponent within one of the answer.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// Multiply by the high word, and by the low word too when the product's
	// low bits are so close to a carry that the low word could change them.
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false // still undecided: the true product may carry
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits: the 53-bit mantissa and one rounding bit.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// An exact half-way product cannot be told from one just above or below.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round half to even into 53 bits.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 of 0 (or an underflow wrapped past zero) is subnormal, 0x7FF and
	// above infinite: both are the slow path's.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
