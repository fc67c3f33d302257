package jsonl

import (
	"math"
	"math/big"
	"math/bits"
)

// A decimal is a number as Cursor.number reads it: its significant digits
// (leading zeros dropped) as man, exact unless there are more than 19 of
// them (long); the power of ten exp10 that scales man (zero when man is);
// its sign; whether it has a fraction and an exponent; and its length n.
type decimal struct {
	man                  uint64
	exp10, n             int
	neg, long, frac, exp bool
}

// maxExp caps the exponent number accumulates, as strconv's readFloat
// caps it: past it every number is zero or out of range.
const maxExp = 10000

// exact returns d's float64 value where an exact path decides it, trying
// them in strconv's own order: Clinger's (a mantissa below 2^53 times or
// over an exact power of ten), then Eisel–Lemire's. Both give the
// correctly rounded value, ParseFloat's. ok is false where both decline:
// a long mantissa, a halfway ambiguity, a subnormal or infinite result, an
// exponent outside the table.
func (d decimal) exact() (f float64, ok bool) {
	if d.long {
		return 0, false
	}
	if d.man>>53 == 0 && -22 <= d.exp10 && d.exp10 <= 22 {
		f = float64(d.man)
		if d.neg {
			f = -f
		}
		if d.exp10 < 0 {
			return f / pow10[-d.exp10], true
		}
		return f * pow10[d.exp10], true
	}
	return eiselLemire64(d.man, d.exp10, d.neg)
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The range of powers of ten Eisel–Lemire's table holds, both inclusive.
const (
	minExp10 = -348
	maxExp10 = 347
)

// powers holds 10^q for q in minExp10…maxExp10 as a 128-bit mantissa
// rounded down, {low, high} word, its top bit set. The exponent of two it
// implies is linear in q (slope 217706/65536 ≈ log2(10)).
var powers = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	p, ten := big.NewInt(1), big.NewInt(10) // 10^q
	for q := 0; q <= -minExp10; q, p = q+1, p.Mul(p, ten) {
		if q <= maxExp10 {
			t[q-minExp10] = top128(p)
		}
		if q > 0 { // 2^(127+bitlen(10^q)) / 10^q has 128 bits
			r := new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
			t[-q-minExp10] = top128(r.Quo(r, p))
		}
	}
	return t
}()

// top128 returns the top 128 bits of x as {low, high} words, zero-filled
// below a shorter x.
func top128(x *big.Int) [2]uint64 {
	y := new(big.Int)
	if n := x.BitLen(); n > 128 {
		y.Rsh(x, uint(n-128))
	} else {
		y.Lsh(x, uint(128-n))
	}
	lo := new(big.Int).And(y, new(big.Int).SetUint64(math.MaxUint64))
	return [2]uint64{lo.Uint64(), y.Rsh(y, 64).Uint64()}
}

// eiselLemire64 is strconv's (src/strconv/eisel_lemire.go of the Go
// distribution) for a nonzero man, transcribed with the table above; its
// notice:
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// It follows https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose
// sections the terse comments name.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &powers[exp10-minExp10]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
