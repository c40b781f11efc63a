package frame

import (
	"image/color"
	"testing"
)

// The codec's colour conversions are image/color's to the bit, over every
// input: the encoder's interior blocks convert with rgbToYCbCr, and the
// decoder adds each chroma sample's chromaTerms to the four luma samples it
// covers (ycbcrPixel). Encoded bytes and decoded pixels stay what the
// stdlib route gives only if each of the 2^24 inputs matches.

func TestRGBToYCbCrExhaustive(t *testing.T) {
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				y, cb, cr := rgbToYCbCr(int32(r), int32(g), int32(b))
				wy, wcb, wcr := color.RGBToYCbCr(uint8(r), uint8(g), uint8(b))
				if y != int32(wy) || cb != int32(wcb) || cr != int32(wcr) {
					t.Fatalf("rgbToYCbCr(%d, %d, %d) = %d, %d, %d; image/color gives %d, %d, %d", r, g, b, y, cb, cr, wy, wcb, wcr)
				}
			}
		}
	}
}

func TestYCbCrToRGBExhaustive(t *testing.T) {
	for cb := 0; cb < 256; cb++ {
		for cr := 0; cr < 256; cr++ {
			rc, gc, bc := chromaTerms(uint8(cb), uint8(cr))
			for y := 0; y < 256; y++ {
				r, g, b := ycbcrPixel(uint8(y), rc, gc, bc)
				wr, wg, wb := color.YCbCrToRGB(uint8(y), uint8(cb), uint8(cr))
				if r != wr || g != wg || b != wb {
					t.Fatalf("ycbcrPixel(%d, chromaTerms(%d, %d)) = %d, %d, %d; image/color gives %d, %d, %d", y, cb, cr, r, g, b, wr, wg, wb)
				}
			}
		}
	}
}
