package frame

import (
	"errors"
	"math/bits"
)

// The fused JPEG encode path. JPEGCodec.AppendEncode needs one thing from a
// JPEG encoder: the stream image/jpeg.Encode writes for an *image.RGBA —
// 8-bit baseline sequential Huffman, three components, 4:2:0 chroma, one
// interleaved scan, no restart markers, the K.3 tables. appendJPEG writes
// that stream byte for byte straight into the caller's slice, with no
// io.Writer, no image.Image and no state that escapes, so a warm encode into
// a scratch with enough capacity allocates nothing. It ports the stdlib
// writer's RGBA path operation for operation: the quality scaling of the K.1
// tables, color.RGBToYCbCr with the last row and column replicated past the
// edge, (sum+2)>>2 chroma averaging, the IJG integer forward DCT,
// round-half-away quantisation and the bit emission with 0xff stuffing.
// image/jpeg stays as the test oracle (jpegenc_test.go).

// errJPEGTooLarge is image/jpeg's error for a dimension SOF0 cannot hold.
var errJPEGTooLarge = errors.New("jpeg: image is too large to encode")

// jpegQuantK1 holds the unscaled K.1 quantisation tables (luminance,
// chrominance) in zig-zag order.
var jpegQuantK1 = [2][jpegBlock]byte{
	{
		16, 11, 12, 14, 12, 10, 16, 14,
		13, 14, 18, 17, 16, 19, 24, 40,
		26, 24, 22, 22, 24, 49, 35, 37,
		29, 40, 58, 51, 61, 60, 57, 51,
		56, 55, 64, 72, 92, 78, 64, 68,
		87, 69, 55, 56, 80, 109, 81, 87,
		95, 98, 103, 104, 103, 62, 77, 113,
		121, 112, 100, 120, 92, 101, 103, 99,
	},
	{
		17, 18, 18, 24, 21, 24, 47, 26,
		26, 47, 99, 66, 56, 66, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
	},
}

// jpegHuffK3 holds the K.3 Huffman tables in DHT order: luminance DC,
// luminance AC, chrominance DC, chrominance AC. count[i] is the number of
// codes of length i+1; value lists the symbols in code order.
var jpegHuffK3 = [4]struct {
	count [16]byte
	value []byte
}{
	{
		[16]byte{0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
		[]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	},
	{
		[16]byte{0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125},
		[]byte{
			0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
			0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
			0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
			0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0,
			0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16,
			0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
			0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
			0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
			0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
			0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
			0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
			0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
			0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
			0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7,
			0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
			0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5,
			0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4,
			0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
			0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea,
			0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	},
	{
		[16]byte{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
		[]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	},
	{
		[16]byte{0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119},
		[]byte{
			0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
			0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
			0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
			0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0,
			0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34,
			0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
			0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38,
			0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
			0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
			0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
			0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
			0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
			0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96,
			0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
			0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
			0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3,
			0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2,
			0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
			0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9,
			0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	},
}

// jpegHuffCodes maps each jpegHuffK3 table's symbols to their codes,
// length<<24 | code. jpegTablesSOS is the fixed part of every stream
// between SOF0 and the scan: the DHT segment for jpegHuffK3, then the SOS
// header (three components; Y on tables 0/0, Cb and Cr on 1/1; the Ss, Se
// and Ah/Al of a sequential scan).
var jpegHuffCodes, jpegTablesSOS = buildJPEGTables()

func buildJPEGTables() (codes [4][256]uint32, tables []byte) {
	n := 2
	for _, s := range jpegHuffK3 {
		n += 1 + 16 + len(s.value)
	}
	out := []byte{0xff, jpegDHT, byte(n >> 8), byte(n)}
	for i, s := range jpegHuffK3 {
		out = append(out, "\x00\x10\x01\x11"[i])
		out = append(out, s.count[:]...)
		out = append(out, s.value...)
		code, k := uint32(0), 0
		for l, c := range s.count {
			for j := byte(0); j < c; j++ {
				codes[i][s.value[k]] = uint32(l+1)<<24 | code
				code++
				k++
			}
			code <<= 1
		}
	}
	return codes, append(out, 0xff, jpegSOS, 0, 12, 3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 0x3f, 0)
}

// jpegEncoder is one appendJPEG call's bit writer and quantisers.
type jpegEncoder struct {
	dst []byte
	// bits holds nBits (< 8) pending bits, most significant first.
	bits, nBits uint32
	// divisor is 8 times the scaled quantisation tables, zig-zag order.
	divisor [2][jpegBlock]int32
}

// appendJPEG appends to dst the stream image/jpeg.Encode writes for the
// w x h RGBA pixels pix (stride w*4) at the given quality, which is clamped
// to 1..100 as jpeg.Options' is. A dimension of 1<<16 or more is the
// stdlib's error and appends nothing.
func appendJPEG(dst, pix []byte, w, h, quality int) ([]byte, error) {
	if w >= 1<<16 || h >= 1<<16 {
		return dst, errJPEGTooLarge
	}
	quality = min(max(quality, 1), 100)
	scale := 200 - quality*2
	if quality < 50 {
		scale = 5000 / quality
	}
	e := jpegEncoder{dst: append(dst, 0xff, jpegSOI, 0xff, jpegDQT, 0, 2+2*(1+jpegBlock))}
	for t := range e.divisor {
		e.dst = append(e.dst, byte(t))
		for i, u := range jpegQuantK1[t] {
			q := min(max((int(u)*scale+50)/100, 1), 255)
			e.dst = append(e.dst, byte(q))
			e.divisor[t][i] = 8 * int32(q)
		}
	}
	e.dst = append(e.dst, 0xff, jpegSOF0, 0, 17, 8, byte(h>>8), byte(h), byte(w>>8), byte(w),
		3, 1, 0x22, 0, 2, 0x11, 1, 3, 0x11, 1)
	e.dst = append(e.dst, jpegTablesSOS...)

	var (
		b               [jpegBlock]int32
		cb, cr          [4][jpegBlock]int32
		dcY, dcCb, dcCr int32 // DC predictors
	)
	for y := 0; y < h; y += 16 {
		for x := 0; x < w; x += 16 {
			for i := 0; i < 4; i++ {
				rgbaToYCbCrBlock(pix, w, h, x+(i&1)*8, y+(i&2)*4, &b, &cb[i], &cr[i])
				dcY = e.block(&b, 0, dcY)
			}
			subsample420(&b, &cb)
			dcCb = e.block(&b, 1, dcCb)
			subsample420(&b, &cr)
			dcCr = e.block(&b, 1, dcCr)
		}
	}
	e.emit(0x7f, 7) // pad the last byte with 1s
	return append(e.dst, 0xff, jpegEOI), nil
}

// rgbaToYCbCrBlock converts the 8x8 region at (x0, y0) to YCbCr, reading
// the last column and row for samples past the edge.
func rgbaToYCbCrBlock(pix []byte, w, h, x0, y0 int, yb, cbb, crb *[jpegBlock]int32) {
	if x0+8 <= w && y0+8 <= h { // an interior block reads nothing past the edge
		for j := 0; j < 8; j++ {
			row := pix[((y0+j)*w+x0)*4:][:32]
			for i := 0; i < 8; i++ {
				p := row[i*4 : i*4+3 : i*4+3]
				yb[8*j+i], cbb[8*j+i], crb[8*j+i] = rgbToYCbCr(int32(p[0]), int32(p[1]), int32(p[2]))
			}
		}
		return
	}
	for j := 0; j < 8; j++ {
		row := pix[min(y0+j, h-1)*w*4:]
		for i := 0; i < 8; i++ {
			p := row[min(x0+i, w-1)*4:][:3]
			yb[8*j+i], cbb[8*j+i], crb[8*j+i] = rgbToYCbCr(int32(p[0]), int32(p[1]), int32(p[2]))
		}
	}
}

// rgbToYCbCr is color.RGBToYCbCr on samples in [0, 255], to the bit: the
// same 16.16 fixed-point sums, each chroma clamped to [0, 255] as the
// stdlib clamps it, as int32s.
func rgbToYCbCr(r, g, b int32) (yy, cb, cr int32) {
	yy = (19595*r + 38470*g + 7471*b + 1<<15) >> 16
	cb = clampFixed(-11056*r - 21712*g + 32768*b + 257<<15)
	cr = clampFixed(32768*r - 27440*g - 5328*b + 257<<15)
	return yy, cb, cr
}

// clampFixed converts a 16.16 fixed-point sample to its integer part
// clamped to [0, 255]: what image/color's conversions compute with their
// bit twiddle (an in-range sum has no bits above 23, a negative one clamps
// to 0 and any other to 255).
func clampFixed(v int32) int32 { return min(max(v>>16, 0), 255) }

// subsample420 averages each 2x2 quad of the 16x16 region held in src's
// four blocks (MCU order) into dst.
func subsample420(dst *[jpegBlock]int32, src *[4][jpegBlock]int32) {
	for i := range src {
		off := (i&2)<<4 | (i&1)<<2
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				j := 16*y + 2*x
				sum := src[i][j] + src[i][j+1] + src[i][j+8] + src[i][j+9]
				dst[8*y+x+off] = (sum + 2) >> 2
			}
		}
	}
}

// block transforms, quantises and emits b (natural order) with tables t (0
// luma, 1 chroma) and returns its quantised DC, the next block's predictor.
func (e *jpegEncoder) block(b *[jpegBlock]int32, t int, prevDC int32) int32 {
	jpegFDCT(b)
	q := &e.divisor[t]
	dc := jpegDiv(b[0], q[0])
	e.emitHuffRLE(2*t, 0, dc-prevDC)
	ac, run := 2*t+1, int32(0)
	for zig := 1; zig < jpegBlock; zig++ {
		v := jpegDiv(b[jpegUnzig[zig]], q[zig])
		if v == 0 {
			run++
			continue
		}
		for ; run > 15; run -= 16 {
			e.emitHuff(ac, 0xf0) // ZRL
		}
		e.emitHuffRLE(ac, run, v)
		run = 0
	}
	if run > 0 {
		e.emitHuff(ac, 0x00) // EOB
	}
	return dc
}

// jpegDiv returns a/b rounded to the nearest integer, halves away from 0.
func jpegDiv(a, b int32) int32 {
	if a >= 0 {
		return (a + b>>1) / b
	}
	return -((-a + b>>1) / b)
}

// emit appends the low nBits (<= 16) bits of bits to the stream, stuffing a
// 0x00 after every 0xff byte.
func (e *jpegEncoder) emit(bits, nBits uint32) {
	nBits += e.nBits
	bits = bits<<(32-nBits) | e.bits
	for ; nBits >= 8; nBits -= 8 {
		c := uint8(bits >> 24)
		e.dst = append(e.dst, c)
		if c == 0xff {
			e.dst = append(e.dst, 0x00)
		}
		bits <<= 8
	}
	e.bits, e.nBits = bits, nBits
}

// emitHuff emits symbol v's code from table h.
func (e *jpegEncoder) emitHuff(h int, v int32) {
	x := jpegHuffCodes[h][v]
	e.emit(x&(1<<24-1), x>>24)
}

// emitHuffRLE emits the symbol for a zero run of run followed by v — v's
// magnitude category — and then v's category bits (T.81 F.1.2).
func (e *jpegEncoder) emitHuffRLE(h int, run, v int32) {
	a, b := v, v
	if a < 0 {
		a, b = -v, v-1
	}
	n := uint32(bits.Len32(uint32(a)))
	e.emitHuff(h, run<<4|int32(n))
	if n > 0 {
		e.emit(uint32(b)&(1<<n-1), n)
	}
}

/*
jpegFDCT is a port of image/jpeg's fdct.go, which is based on jfdctint.c
from the Independent JPEG Group, found at
http://www.ijg.org/files/jpegsrc.v8c.tar.gz.

The "LEGAL ISSUES" section of the README in that archive says:

In plain English:

1. We don't promise that this software works.  (But if you find any bugs,
   please let us know!)
2. You can use this software for whatever you want.  You don't have to pay us.
3. You may not pretend that you wrote this software.  If you use it in a
   program, you must acknowledge somewhere in your documentation that
   you've used the IJG code.

In legalese:

The authors make NO WARRANTY or representation, either express or implied,
with respect to this software, its quality, accuracy, merchantability, or
fitness for a particular purpose.  This software is provided "AS IS", and you,
its user, assume the entire risk as to its quality and accuracy.

This software is copyright (C) 1991-2011, Thomas G. Lane, Guido Vollbeding.
All Rights Reserved except as specified below.

Permission is hereby granted to use, copy, modify, and distribute this
software (or portions thereof) for any purpose, without fee, subject to these
conditions:
(1) If any part of the source code for this software is distributed, then this
README file must be included, with this copyright and no-warranty notice
unaltered; and any additions, deletions, or changes to the original files
must be clearly indicated in accompanying documentation.
(2) If only executable code is distributed, then the accompanying
documentation must state that "this software is based in part on the work of
the Independent JPEG Group".
(3) Permission for use of this software is granted only if the user accepts
full responsibility for any undesirable consequences; the authors accept
NO LIABILITY for damages of any kind.

These conditions apply to any software derived from or based on the IJG code,
not just to the unmodified library.  If you use our work, you ought to
acknowledge us.

Permission is NOT granted for the use of any IJG author's name or company name
in advertising or publicity relating to this software or products derived from
it.  This software may be referred to only as "the Independent JPEG Group's
software".

We specifically permit and encourage the use of this software as the basis of
commercial products, provided that all warranty or liability claims are
assumed by the product vendor.
*/

// Trigonometric constants of the forward DCT in 13-bit fixed point.
const (
	fix_0_298631336 = 2446
	fix_0_390180644 = 3196
	fix_0_541196100 = 4433
	fix_0_765366865 = 6270
	fix_0_899976223 = 7373
	fix_1_175875602 = 9633
	fix_1_501321110 = 12299
	fix_1_847759065 = 15137
	fix_1_961570560 = 16069
	fix_2_053119869 = 16819
	fix_2_562915447 = 20995
	fix_3_072711026 = 25172

	fdctConstBits = 13
	fdctPass1Bits = 2
)

// jpegFDCT is the forward DCT of an 8x8 block of samples in natural order,
// level shift included, leaving the output scaled up by 8.
func jpegFDCT(b *[jpegBlock]int32) {
	// Pass 1: rows.
	for y := 0; y < 8; y++ {
		s := b[y*8 : y*8+8 : y*8+8]
		tmp0, tmp1, tmp2, tmp3 := s[0]+s[7], s[1]+s[6], s[2]+s[5], s[3]+s[4]
		tmp10, tmp12 := tmp0+tmp3, tmp0-tmp3
		tmp11, tmp13 := tmp1+tmp2, tmp1-tmp2
		tmp0, tmp1, tmp2, tmp3 = s[0]-s[7], s[1]-s[6], s[2]-s[5], s[3]-s[4]

		s[0] = (tmp10 + tmp11 - 8*128) << fdctPass1Bits
		s[4] = (tmp10 - tmp11) << fdctPass1Bits
		z1 := (tmp12+tmp13)*fix_0_541196100 + 1<<(fdctConstBits-fdctPass1Bits-1)
		s[2] = (z1 + tmp12*fix_0_765366865) >> (fdctConstBits - fdctPass1Bits)
		s[6] = (z1 - tmp13*fix_1_847759065) >> (fdctConstBits - fdctPass1Bits)

		tmp10, tmp11, tmp12, tmp13 = tmp0+tmp3, tmp1+tmp2, tmp0+tmp2, tmp1+tmp3
		z1 = (tmp12+tmp13)*fix_1_175875602 + 1<<(fdctConstBits-fdctPass1Bits-1)
		tmp0 *= fix_1_501321110
		tmp1 *= fix_3_072711026
		tmp2 *= fix_2_053119869
		tmp3 *= fix_0_298631336
		tmp10 *= -fix_0_899976223
		tmp11 *= -fix_2_562915447
		tmp12 = tmp12*-fix_0_390180644 + z1
		tmp13 = tmp13*-fix_1_961570560 + z1
		s[1] = (tmp0 + tmp10 + tmp12) >> (fdctConstBits - fdctPass1Bits)
		s[3] = (tmp1 + tmp11 + tmp13) >> (fdctConstBits - fdctPass1Bits)
		s[5] = (tmp2 + tmp11 + tmp12) >> (fdctConstBits - fdctPass1Bits)
		s[7] = (tmp3 + tmp10 + tmp13) >> (fdctConstBits - fdctPass1Bits)
	}
	// Pass 2: columns. This removes pass 1's scaling but leaves the factor
	// of 8.
	for x := 0; x < 8; x++ {
		tmp0, tmp1, tmp2, tmp3 := b[0*8+x]+b[7*8+x], b[1*8+x]+b[6*8+x], b[2*8+x]+b[5*8+x], b[3*8+x]+b[4*8+x]
		tmp10, tmp12 := tmp0+tmp3+1<<(fdctPass1Bits-1), tmp0-tmp3
		tmp11, tmp13 := tmp1+tmp2, tmp1-tmp2
		tmp0, tmp1, tmp2, tmp3 = b[0*8+x]-b[7*8+x], b[1*8+x]-b[6*8+x], b[2*8+x]-b[5*8+x], b[3*8+x]-b[4*8+x]

		b[0*8+x] = (tmp10 + tmp11) >> fdctPass1Bits
		b[4*8+x] = (tmp10 - tmp11) >> fdctPass1Bits
		z1 := (tmp12+tmp13)*fix_0_541196100 + 1<<(fdctConstBits+fdctPass1Bits-1)
		b[2*8+x] = (z1 + tmp12*fix_0_765366865) >> (fdctConstBits + fdctPass1Bits)
		b[6*8+x] = (z1 - tmp13*fix_1_847759065) >> (fdctConstBits + fdctPass1Bits)

		tmp10, tmp11, tmp12, tmp13 = tmp0+tmp3, tmp1+tmp2, tmp0+tmp2, tmp1+tmp3
		z1 = (tmp12+tmp13)*fix_1_175875602 + 1<<(fdctConstBits+fdctPass1Bits-1)
		tmp0 *= fix_1_501321110
		tmp1 *= fix_3_072711026
		tmp2 *= fix_2_053119869
		tmp3 *= fix_0_298631336
		tmp10 *= -fix_0_899976223
		tmp11 *= -fix_2_562915447
		tmp12 = tmp12*-fix_0_390180644 + z1
		tmp13 = tmp13*-fix_1_961570560 + z1
		b[1*8+x] = (tmp0 + tmp10 + tmp12) >> (fdctConstBits + fdctPass1Bits)
		b[3*8+x] = (tmp1 + tmp11 + tmp13) >> (fdctConstBits + fdctPass1Bits)
		b[5*8+x] = (tmp2 + tmp11 + tmp12) >> (fdctConstBits + fdctPass1Bits)
		b[7*8+x] = (tmp3 + tmp10 + tmp13) >> (fdctConstBits + fdctPass1Bits)
	}
}
