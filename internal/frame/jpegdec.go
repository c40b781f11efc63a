package frame

import (
	"image/color"
	"sync"
)

// The fused JPEG decode path. JPEGCodec.AppendEncode always emits the same
// stream shape — 8-bit baseline sequential Huffman, three components, 4:2:0
// chroma, one interleaved scan, no restart markers — so the decode side
// does not need image/jpeg's generality, and above all does not need its
// intermediate planar *image.YCbCr (460 KiB per VGA frame, allocated and
// dropped on every remote hop). jpegDecoder reads bits straight from the
// payload slice, reconstructs one 16x16 MCU at a time into fixed scratch,
// and writes RGBA pixels directly into the pooled destination buffer.
//
// The output contract is byte equality with the stdlib route
// (jpeg.Decode + FromImage): the same table-driven Huffman decoding, the
// same int32 dequantisation and integer IDCT, the same nearest-chroma
// lookup as fromYCbCrRows and the same color.YCbCrToRGB. The acceptance
// contract is "never more liberal than image/jpeg": anything this decoder
// does not recognise or cannot finish — another valid JPEG flavour
// (progressive, grayscale, 4:4:4, restart intervals, APPn segments) as
// much as a corrupt stream — is reported as !ok and the caller reruns the
// payload through the stdlib, which alone decides accept or reject.

const jpegBlock = 64 // coefficients in an 8x8 DCT block

// jpegUnzig maps zig-zag order to natural (row-major) order.
var jpegUnzig = [jpegBlock]uint8{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// jpegHuffman is one canonical Huffman table (T.81 annex C): an 8-bit
// lookup for short codes and min/max code bounds for the long ones.
type jpegHuffman struct {
	// set reports that a DHT segment of the current stream defined the
	// table.
	set bool
	// lut maps the next 8 bits to value<<8 | (1 + code length), or 0 when
	// the code is longer than 8 bits.
	lut [256]uint16
	// vals are the decoded values in code order.
	vals [256]uint8
	// minCode, maxCode and valIdx are indexed by code length - 1;
	// maxCode is -1 for lengths with no codes.
	minCode, maxCode, valIdx [16]int32
}

// jpegDecoder is the per-decode state: tables, the bit reader and the MCU
// scratch. It is ~6 KiB, so instances cycle through jpegDecoders rather
// than living on the stack or the heap per frame.
type jpegDecoder struct {
	huff     [2][2]jpegHuffman // [class: 0 DC, 1 AC][table id]
	quant    [4][jpegBlock]int32
	quantSet [4]bool

	compID [3]uint8 // component identifiers from SOF0
	compTq [3]uint8 // quantisation table selectors from SOF0
	compTd [3]uint8 // DC table selectors from SOS
	compTa [3]uint8 // AC table selectors from SOS
	dc     [3]int32 // running DC predictor per component

	// Bit reader over the entropy-coded segment: the low nbits bits of
	// acc are unread, most significant first. pos is the next byte to
	// pull; refill stops (for good) at the first marker or end of data.
	data  []byte
	pos   int
	acc   uint64
	nbits uint

	yPix         [256]byte // one MCU of luma, 16x16
	cbPix, crPix [64]byte  // its 8x8 chroma blocks
}

var jpegDecoders = sync.Pool{New: func() any { return new(jpegDecoder) }}

// decodeBaseline420 decodes payload into a pooled w x h frame when it is a
// stream of the shape described above whose SOF0 dimensions are exactly
// w x h. The destination buffer is taken only after the headers (including
// that dimension check) have been accepted, and is released again if the
// scan turns out to be corrupt, so !ok never leaves a buffer outstanding.
func decodeBaseline420(payload []byte, w, h int) (f *Frame, ok bool) {
	d := jpegDecoders.Get().(*jpegDecoder)
	defer func() {
		// Pooled decoders are all-zero: no table outlives its stream, and
		// the pool does not pin the payload.
		*d = jpegDecoder{}
		jpegDecoders.Put(d)
	}()
	if !d.parseHeaders(payload, w, h) {
		return nil, false
	}
	f = newPooledDirty(w, h)
	if !d.decodeScan(f.Pix, w, h) {
		f.Release()
		return nil, false
	}
	return f, true
}

const (
	jpegSOF0 = 0xc0
	jpegDHT  = 0xc4
	jpegSOI  = 0xd8
	jpegEOI  = 0xd9
	jpegSOS  = 0xda
	jpegDQT  = 0xdb
)

// parseHeaders walks the marker segments up to and including SOS and
// leaves d.data/d.pos at the first entropy-coded byte. It accepts only
// DQT, SOF0, DHT and SOS segments (in any order the stdlib would also
// accept) and requires every table the scan references to be defined by
// this stream.
func (d *jpegDecoder) parseHeaders(p []byte, w, h int) bool {
	if len(p) < 2 || p[0] != 0xff || p[1] != jpegSOI {
		return false
	}
	pos, sof := 2, false
	for {
		if pos+4 > len(p) || p[pos] != 0xff {
			return false
		}
		marker := p[pos+1]
		n := int(p[pos+2])<<8 | int(p[pos+3])
		if n < 2 || pos+2+n > len(p) {
			return false
		}
		seg := p[pos+4 : pos+2+n]
		pos += 2 + n
		switch marker {
		case jpegDQT:
			if !d.parseDQT(seg) {
				return false
			}
		case jpegDHT:
			if !d.parseDHT(seg) {
				return false
			}
		case jpegSOF0:
			if sof || !d.parseSOF0(seg, w, h) {
				return false
			}
			sof = true
		case jpegSOS:
			if !sof || !d.parseSOS(seg) {
				return false
			}
			d.data, d.pos = p, pos
			return true
		default:
			return false
		}
	}
}

func (d *jpegDecoder) parseDQT(seg []byte) bool {
	for len(seg) > 0 {
		// High nibble is the precision: only 8-bit tables.
		tq := seg[0]
		if tq > 3 || len(seg) < 1+jpegBlock {
			return false
		}
		for i, v := range seg[1 : 1+jpegBlock] {
			d.quant[tq][i] = int32(v)
		}
		d.quantSet[tq] = true
		seg = seg[1+jpegBlock:]
	}
	return true
}

func (d *jpegDecoder) parseSOF0(seg []byte, w, h int) bool {
	if len(seg) != 6+3*3 || seg[0] != 8 || seg[5] != 3 {
		return false
	}
	if int(seg[1])<<8|int(seg[2]) != h || int(seg[3])<<8|int(seg[4]) != w {
		return false
	}
	for i := 0; i < 3; i++ {
		d.compID[i] = seg[6+3*i]
		d.compTq[i] = seg[8+3*i]
		if d.compTq[i] > 3 || seg[7+3*i] != "\x22\x11\x11"[i] {
			return false
		}
	}
	return d.compID[0] != d.compID[1] && d.compID[0] != d.compID[2] && d.compID[1] != d.compID[2]
}

func (d *jpegDecoder) parseDHT(seg []byte) bool {
	for len(seg) > 0 {
		if len(seg) < 17 {
			return false
		}
		tc, th := seg[0]>>4, seg[0]&0x0f
		if tc > 1 || th > 1 {
			return false
		}
		h := &d.huff[tc][th]
		counts := seg[1:17]
		total := 0
		for _, c := range counts {
			total += int(c)
		}
		if total == 0 || total > len(h.vals) || len(seg) < 17+total {
			return false
		}
		copy(h.vals[:], seg[17:17+total])
		seg = seg[17+total:]

		clear(h.lut[:]) // a stream may define the same table twice
		var code, idx int32
		for i, c := range counts {
			n := int32(c)
			// An over-subscribed length has no canonical assignment; the
			// stdlib's handling of one is an accident of its table
			// layout, so leave those streams to it.
			if code+n > 1<<(i+1) {
				return false
			}
			if n == 0 {
				h.minCode[i], h.maxCode[i], h.valIdx[i] = -1, -1, -1
			} else {
				h.minCode[i], h.maxCode[i], h.valIdx[i] = code, code+n-1, idx
				if i < 8 {
					// Every 8-bit window starting with one of these
					// codes resolves in one lookup.
					span := 1 << (7 - i)
					for j := int32(0); j < n; j++ {
						entry := uint16(h.vals[idx+j])<<8 | uint16(2+i)
						base := int(code+j) << (7 - i)
						for k := 0; k < span; k++ {
							h.lut[base+k] = entry
						}
					}
				}
				code += n
				idx += n
			}
			code <<= 1
		}
		h.set = true
	}
	return true
}

func (d *jpegDecoder) parseSOS(seg []byte) bool {
	if len(seg) != 4+2*3 || seg[0] != 3 {
		return false
	}
	for i := 0; i < 3; i++ {
		// Components must be interleaved in frame order, which fixes the
		// MCU layout to Y Y Y Y Cb Cr.
		if seg[1+2*i] != d.compID[i] {
			return false
		}
		td, ta := seg[2+2*i]>>4, seg[2+2*i]&0x0f
		if td > 1 || ta > 1 || !d.huff[0][td].set || !d.huff[1][ta].set || !d.quantSet[d.compTq[i]] {
			return false
		}
		d.compTd[i], d.compTa[i] = td, ta
	}
	// Like the stdlib, ignore Ss/Se/Ah/Al: a sequential scan has only one
	// legal setting.
	return true
}

// refill tops the accumulator up to at least 57 bits, undoing 0xff00 byte
// stuffing. It stops short at the first marker (0xff followed by anything
// but 0x00) or the end of data; since pos does not advance past either,
// every later call stops there too.
func (d *jpegDecoder) refill() {
	for d.nbits <= 56 {
		if d.pos >= len(d.data) {
			return
		}
		c := d.data[d.pos]
		if c == 0xff {
			if d.pos+1 >= len(d.data) || d.data[d.pos+1] != 0x00 {
				return
			}
			d.pos++
		}
		d.pos++
		d.acc = d.acc<<8 | uint64(c)
		d.nbits += 8
	}
}

// decodeHuffman returns the next Huffman-coded value.
func (d *jpegDecoder) decodeHuffman(h *jpegHuffman) (uint8, bool) {
	if d.nbits < 16 {
		d.refill()
	}
	if d.nbits >= 8 {
		if v := h.lut[uint8(d.acc>>(d.nbits-8))]; v != 0 {
			d.nbits -= uint(v&0xff) - 1
			return uint8(v >> 8), true
		}
	}
	// A code longer than 8 bits, or the last few bits before EOI.
	code := int32(0)
	for i := 0; i < 16 && d.nbits > 0; i++ {
		d.nbits--
		code |= int32(d.acc>>d.nbits) & 1
		if code <= h.maxCode[i] {
			return h.vals[h.valIdx[i]+code-h.minCode[i]], true
		}
		code <<= 1
	}
	return 0, false
}

// receiveExtend reads a t-bit magnitude and sign-extends it (T.81 F.2.2.1).
func (d *jpegDecoder) receiveExtend(t uint8) (int32, bool) {
	if d.nbits < uint(t) {
		d.refill()
		if d.nbits < uint(t) {
			return 0, false
		}
	}
	d.nbits -= uint(t)
	s := int32(1) << t
	x := int32(d.acc>>d.nbits) & (s - 1)
	if x < s>>1 {
		x += -1<<t + 1
	}
	return x, true
}

// decodeBlock decodes the next block of component comp into b: coefficients
// in natural order, already multiplied by the quantisation table.
func (d *jpegDecoder) decodeBlock(b *[jpegBlock]int32, comp int) bool {
	qt := &d.quant[d.compTq[comp]]

	t, ok := d.decodeHuffman(&d.huff[0][d.compTd[comp]])
	if !ok || t > 16 {
		return false
	}
	delta, ok := d.receiveExtend(t)
	if !ok {
		return false
	}
	d.dc[comp] += delta
	b[0] = d.dc[comp] * qt[0]

	ac := &d.huff[1][d.compTa[comp]]
	for zig := 1; zig < jpegBlock; zig++ {
		v, ok := d.decodeHuffman(ac)
		if !ok {
			return false
		}
		run, size := int(v>>4), v&0x0f
		if size == 0 {
			if run == 0 { // end of block
				break
			}
			if run != 0x0f {
				// An end-of-band run: progressive-only, but the stdlib
				// honours it in sequential scans too.
				return false
			}
			zig += 0x0f
			continue
		}
		zig += run
		if zig >= jpegBlock {
			break
		}
		c, ok := d.receiveExtend(size)
		if !ok {
			return false
		}
		b[jpegUnzig[zig]] = c * qt[zig]
	}
	return true
}

// reconstruct decodes the next block of component comp and stores its 8x8
// samples at dst.
func (d *jpegDecoder) reconstruct(comp int, dst []byte, stride int) bool {
	var b [jpegBlock]int32
	if !d.decodeBlock(&b, comp) {
		return false
	}
	jpegIDCT(&b)
	jpegStore(dst, stride, &b)
	return true
}

// decodeScan decodes the single interleaved scan into pix (w*h RGBA) and
// checks that EOI follows immediately.
func (d *jpegDecoder) decodeScan(pix []byte, w, h int) bool {
	for y0 := 0; y0 < h; y0 += 16 {
		for x0 := 0; x0 < w; x0 += 16 {
			for j := 0; j < 4; j++ {
				if !d.reconstruct(0, d.yPix[(j>>1)*128+(j&1)*8:], 16) {
					return false
				}
			}
			if !d.reconstruct(1, d.cbPix[:], 8) || !d.reconstruct(2, d.crPix[:], 8) {
				return false
			}
			d.emitMCU(pix, w, x0, y0, min(16, w-x0), min(16, h-y0))
		}
	}
	// Only the encoder's sub-byte padding may remain, and EOI must be the
	// very next thing; the stdlib tolerates more, so it gets those.
	d.refill()
	return d.nbits < 8 && d.pos+2 <= len(d.data) && d.data[d.pos] == 0xff && d.data[d.pos+1] == jpegEOI
}

// emitMCU colour-converts the cw x ch visible corner of the MCU scratch
// into the destination at (x0, y0). Each chroma sample covers a 2x2 luma
// quad, the same nearest lookup image.YCbCr.COffset gives fromYCbCrRows.
func (d *jpegDecoder) emitMCU(pix []byte, w, x0, y0, cw, ch int) {
	for py := 0; py < ch; py++ {
		out := pix[((y0+py)*w+x0)*4:][:cw*4]
		yRow := d.yPix[py*16:][:cw]
		cRow := (py >> 1) * 8
		for px, yy := range yRow {
			ci := cRow + px>>1
			r, g, bb := color.YCbCrToRGB(yy, d.cbPix[ci], d.crPix[ci])
			o := out[px*4:][:4]
			o[0], o[1], o[2], o[3] = r, g, bb, 0xff
		}
	}
}

// jpegStore level-shifts and clamps an IDCT output block into dst.
func jpegStore(dst []byte, stride int, b *[jpegBlock]int32) {
	for y := 0; y < 8; y++ {
		row := dst[y*stride:][:8]
		for x := range row {
			c := b[y*8+x]
			if c < -128 {
				c = -128
			} else if c > 127 {
				c = 127
			}
			row[x] = uint8(c + 128)
		}
	}
}

// Fixed-point constants of the IDCT below: 2048*sqrt(2)*cos(k*pi/16).
const (
	idctW1 = 2841
	idctW2 = 2676
	idctW3 = 2408
	idctW5 = 1609
	idctW6 = 1108
	idctW7 = 565
	idctR2 = 181 // 256/sqrt(2)
)

// jpegIDCT is the 2-D integer inverse DCT image/jpeg uses (Wang's
// factorisation as implemented by the MPEG Software Simulation Group's
// reference decoder), reproduced operation for operation: decoded pixels
// are only byte-identical to the stdlib's if every intermediate rounds the
// same way, int32 wrap-around on hostile coefficients included.
func jpegIDCT(b *[jpegBlock]int32) {
	// Rows.
	for y := 0; y < 8; y++ {
		s := b[y*8 : y*8+8 : y*8+8]
		if s[1] == 0 && s[2] == 0 && s[3] == 0 && s[4] == 0 && s[5] == 0 && s[6] == 0 && s[7] == 0 {
			dc := s[0] << 3
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = dc, dc, dc, dc, dc, dc, dc, dc
			continue
		}
		x0 := s[0]<<11 + 128
		x1 := s[4] << 11
		x2, x3, x4, x5, x6, x7 := s[6], s[2], s[1], s[7], s[5], s[3]

		x8 := idctW7 * (x4 + x5)
		x4 = x8 + (idctW1-idctW7)*x4
		x5 = x8 - (idctW1+idctW7)*x5
		x8 = idctW3 * (x6 + x7)
		x6 = x8 - (idctW3-idctW5)*x6
		x7 = x8 - (idctW3+idctW5)*x7

		x8 = x0 + x1
		x0 -= x1
		x1 = idctW6 * (x3 + x2)
		x2 = x1 - (idctW2+idctW6)*x2
		x3 = x1 + (idctW2-idctW6)*x3
		x1 = x4 + x6
		x4 -= x6
		x6 = x5 + x7
		x5 -= x7

		x7 = x8 + x3
		x8 -= x3
		x3 = x0 + x2
		x0 -= x2
		x2 = (idctR2*(x4+x5) + 128) >> 8
		x4 = (idctR2*(x4-x5) + 128) >> 8

		s[0] = (x7 + x1) >> 8
		s[1] = (x3 + x2) >> 8
		s[2] = (x0 + x4) >> 8
		s[3] = (x8 + x6) >> 8
		s[4] = (x8 - x6) >> 8
		s[5] = (x0 - x4) >> 8
		s[6] = (x3 - x2) >> 8
		s[7] = (x7 - x1) >> 8
	}

	// Columns.
	for x := 0; x < 8; x++ {
		s := b[x : x+57 : x+57]
		y0 := s[8*0]<<8 + 8192
		y1 := s[8*4] << 8
		y2, y3, y4, y5, y6, y7 := s[8*6], s[8*2], s[8*1], s[8*7], s[8*5], s[8*3]

		y8 := idctW7*(y4+y5) + 4
		y4 = (y8 + (idctW1-idctW7)*y4) >> 3
		y5 = (y8 - (idctW1+idctW7)*y5) >> 3
		y8 = idctW3*(y6+y7) + 4
		y6 = (y8 - (idctW3-idctW5)*y6) >> 3
		y7 = (y8 - (idctW3+idctW5)*y7) >> 3

		y8 = y0 + y1
		y0 -= y1
		y1 = idctW6*(y3+y2) + 4
		y2 = (y1 - (idctW2+idctW6)*y2) >> 3
		y3 = (y1 + (idctW2-idctW6)*y3) >> 3
		y1 = y4 + y6
		y4 -= y6
		y6 = y5 + y7
		y5 -= y7

		y7 = y8 + y3
		y8 -= y3
		y3 = y0 + y2
		y0 -= y2
		y2 = (idctR2*(y4+y5) + 128) >> 8
		y4 = (idctR2*(y4-y5) + 128) >> 8

		s[8*0] = (y7 + y1) >> 14
		s[8*1] = (y3 + y2) >> 14
		s[8*2] = (y0 + y4) >> 14
		s[8*3] = (y8 + y6) >> 14
		s[8*4] = (y8 - y6) >> 14
		s[8*5] = (y0 - y4) >> 14
		s[8*6] = (y3 - y2) >> 14
		s[8*7] = (y7 - y1) >> 14
	}
}
