package tokenizer

import (
	"strings"
	"unicode"
)

// Pieces is the reference split rule: it materializes every piece as a
// string, ranging over text's runes. Encode and Count must agree with it
// (FuzzEncodeMatchesPieces).
func Pieces(text string) []string {
	var pieces []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		w := b.String()
		b.Reset()
		for len(w) > maxPieceLen {
			pieces = append(pieces, w[:maxPieceLen])
			w = w[maxPieceLen:]
		}
		pieces = append(pieces, w)
	}
	for _, r := range text {
		switch {
		case unicode.IsSpace(r):
			flush()
		case unicode.IsPunct(r) || unicode.IsSymbol(r):
			flush()
			pieces = append(pieces, string(r))
		default:
			b.WriteRune(r)
		}
	}
	flush()
	return pieces
}

// encodePieces is the reference encoding: t's BOS, then pieceID of each
// of pieces.
func encodePieces(t *Tokenizer, pieces []string) []uint64 {
	var out []uint64
	if t.BOS != 0 {
		out = append(out, t.BOS)
	}
	for _, p := range pieces {
		out = append(out, pieceID(p))
	}
	return out
}
