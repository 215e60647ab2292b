// Package tokenizer provides a deterministic word-piece style tokenizer
// for the serving frontend. It is not a linguistic BPE model — engine
// performance depends only on token counts and token identity (for prefix
// caching), so the tokenizer's job is to map equal text to equal token
// streams, split long words the way subword vocabularies do, and be stable
// across runs.
//
// The split rule, over the text's runes (an invalid UTF-8 byte reads as
// one U+FFFD rune):
//   - whitespace (unicode.IsSpace) ends the current word;
//   - punctuation and symbols (unicode.IsPunct, unicode.IsSymbol, and so
//     U+FFFD) end the current word and are one piece each, so every
//     invalid byte is its own "�" piece;
//   - every other rune extends the current word, and a word is cut into
//     pieces every maxPieceLen bytes, which can split a multi-byte rune.
//
// Encode and Count apply the rule in one pass over the text's bytes,
// hashing each piece in place without materializing it.
package tokenizer

import (
	"sync"
	"unicode"
	"unicode/utf8"
)

// maxPieceLen approximates subword splitting: words longer than this are
// split into pieces, mimicking how BPE vocabularies fragment rare words.
const maxPieceLen = 6

// Tokenizer maps text to deterministic token IDs.
type Tokenizer struct {
	// BOS is prepended to every encoding when non-zero.
	BOS uint64
}

// New returns a tokenizer with a BOS token, like the paper's Llama/Qwen
// tokenizers.
func New() *Tokenizer { return &Tokenizer{BOS: 1} }

// Encode maps text to token IDs: the BOS token when set, then one token
// per piece (see the package comment for the split rule). The returned
// slice is its only allocation.
func (t *Tokenizer) Encode(text string) []uint64 {
	buf := scratch.Get().(*[]uint64)
	*buf = appendIDs((*buf)[:0], text)
	bos := t.specials()
	out := make([]uint64, bos+len(*buf))
	if bos > 0 {
		out[0] = t.BOS
	}
	copy(out[bos:], *buf)
	scratch.Put(buf)
	return out
}

// Count returns len(t.Encode(text)) without allocating.
func (t *Tokenizer) Count(text string) int {
	buf := scratch.Get().(*[]uint64)
	*buf = appendIDs((*buf)[:0], text)
	n := len(*buf)
	scratch.Put(buf)
	return t.specials() + n
}

// scratch holds the ID buffers Encode and Count scan into, so a scan
// allocates only while its buffer grows to the longest text seen.
var scratch = sync.Pool{New: func() any { return new([]uint64) }}

// specials is the number of special tokens Encode prepends.
func (t *Tokenizer) specials() int {
	if t.BOS != 0 {
		return 1
	}
	return 0
}

// Rune classes of the split rule.
const (
	classWord  = iota // extends the current word
	classSpace        // ends the current word
	classMark         // ends the current word and is a piece of its own
)

// asciiClass classifies the single-byte runes; runeClass covers the rest.
var asciiClass = func() (tab [utf8.RuneSelf]uint8) {
	for r := range tab {
		tab[r] = runeClass(rune(r))
	}
	return tab
}()

func runeClass(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return classSpace
	case unicode.IsPunct(r) || unicode.IsSymbol(r):
		return classMark
	}
	return classWord
}

// FNV-1a parameters of pieceID.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// replacementID is the ID of the piece an invalid UTF-8 byte becomes.
var replacementID = pieceID(string(utf8.RuneError))

// appendIDs applies the split rule to text, appending each piece's ID to
// ids, and returns the extended slice.
func appendIDs(ids []uint64, text string) []uint64 {
	// h is the FNV-1a state of the open piece, which holds l bytes.
	h, l := uint64(fnvOffset), 0
	for i := 0; i < len(text); {
		c := text[i]
		// ASCII word bytes, the bulk of most prompts, skip rune decoding.
		if c < utf8.RuneSelf && asciiClass[c] == classWord {
			if l == maxPieceLen {
				ids = append(ids, finish(h))
				h, l = fnvOffset, 0
			}
			h = (h ^ uint64(c)) * fnvPrime
			l++
			i++
			continue
		}
		class, size := asciiClass[c&(utf8.RuneSelf-1)], 1
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			class = runeClass(r)
		}
		if class == classWord {
			for end := i + size; i < end; i++ {
				if l == maxPieceLen {
					ids = append(ids, finish(h))
					h, l = fnvOffset, 0
				}
				h = (h ^ uint64(text[i])) * fnvPrime
				l++
			}
			continue
		}
		if l > 0 {
			ids = append(ids, finish(h))
			h, l = fnvOffset, 0
		}
		if class == classMark {
			// A one-byte U+FFFD is an invalid byte; any other rune's bytes
			// are its own UTF-8 encoding.
			id := pieceID(text[i : i+size])
			if size == 1 && c >= utf8.RuneSelf {
				id = replacementID
			}
			ids = append(ids, id)
		}
		i += size
	}
	if l > 0 {
		ids = append(ids, finish(h))
	}
	return ids
}

// pieceID hashes a piece into a stable token ID (FNV-1a, offset away from
// the reserved special-token range).
func pieceID(piece string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(piece); i++ {
		h = (h ^ uint64(piece[i])) * fnvPrime
	}
	return finish(h)
}

// finish maps a piece's FNV-1a state to its ID, keeping IDs out of the
// special-token range [0, 256).
func finish(h uint64) uint64 {
	if h < 256 {
		h += 256
	}
	return h
}

// TokenID exposes the stable ID of one piece (used by the scorer to
// identify allowed output tokens).
func TokenID(piece string) uint64 { return pieceID(piece) }
