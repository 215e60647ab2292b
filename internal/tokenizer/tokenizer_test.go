package tokenizer

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	tk := New()
	a := tk.Encode("Should we recommend this document to this user?")
	b := tk.Encode("Should we recommend this document to this user?")
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic encoding")
		}
	}
}

func TestSharedPrefixEncodesIdentically(t *testing.T) {
	tk := New()
	p1 := tk.Encode("profile: reads systems papers. post: about databases")
	p2 := tk.Encode("profile: reads systems papers. post: about compilers")
	// Common text prefix ⇒ common token prefix.
	common := 0
	for common < len(p1) && common < len(p2) && p1[common] == p2[common] {
		common++
	}
	if common < len(p1)-4 {
		t.Fatalf("common prefix only %d of %d tokens", common, len(p1))
	}
	if common == len(p1) && common == len(p2) {
		t.Fatal("different texts encoded identically")
	}
}

func TestBOSPrepended(t *testing.T) {
	tk := New()
	toks := tk.Encode("hi")
	if len(toks) < 2 || toks[0] != tk.BOS {
		t.Fatalf("no BOS: %v", toks)
	}
	tk.BOS = 0
	if toks := tk.Encode("hi"); len(toks) != 1 {
		t.Fatalf("BOS=0 should omit it: %v", toks)
	}
}

func TestLongWordsSplit(t *testing.T) {
	pieces := Pieces("internationalization")
	if len(pieces) < 3 {
		t.Fatalf("long word not split: %v", pieces)
	}
	if strings.Join(pieces, "") != "internationalization" {
		t.Fatalf("pieces lose content: %v", pieces)
	}
	tk := New()
	if got, want := tk.Encode("internationalization"), encodePieces(tk, pieces); !slices.Equal(got, want) {
		t.Fatalf("Encode = %v, want %v", got, want)
	}
}

func TestPunctuationSeparated(t *testing.T) {
	pieces := Pieces("Yes, or No?")
	want := []string{"Yes", ",", "or", "No", "?"}
	if len(pieces) != len(want) {
		t.Fatalf("pieces = %v, want %v", pieces, want)
	}
	for i := range want {
		if pieces[i] != want[i] {
			t.Fatalf("pieces = %v, want %v", pieces, want)
		}
	}
	tk := New()
	if got, want := tk.Encode("Yes, or No?"), encodePieces(tk, want); !slices.Equal(got, want) {
		t.Fatalf("Encode = %v, want %v", got, want)
	}
}

func TestCountMatchesEncode(t *testing.T) {
	tk := New()
	f := func(s string) bool {
		return tk.Count(s) == len(tk.Encode(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenIDsAvoidSpecialRange(t *testing.T) {
	f := func(s string) bool {
		if s == "" {
			return true
		}
		return TokenID(s) >= 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScalesRoughlyWithWords(t *testing.T) {
	tk := New()
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 100)
	n := tk.Count(text)
	if n < 900 || n > 1400 {
		t.Fatalf("token count %d for 900 words, want ~1:1.2 ratio", n)
	}
}

// FuzzEncodeMatchesPieces checks the one-pass scanner against the
// materializing oracle on arbitrary bytes, with and without BOS.
func FuzzEncodeMatchesPieces(f *testing.F) {
	for _, s := range []string{
		"",
		"Should we recommend this post? Answer:",
		"internationalization",
		"a\xffb\xc3(\xe2\x82)z",           // invalid and truncated sequences
		"\xed\xa0\x80 \xf4\x90\x80\x80",   // surrogate and beyond-U+10FFFF encodings
		"\ufffd literal replacement",      // a valid U+FFFD is a symbol piece too
		"word\u0085next\u00a0last\u3000x", // non-ASCII whitespace
		"ctl\x00\x01\x1f\x7fbytes\tand\vspace\f\r\n",
		"\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u65e5\u672c\u8a9e\U0001d518\U0001d52b\U0001d526", // long multi-byte words split mid-rune
		"\u20ac$+<=>^`|~\u00bf\u00a1\u00ab\u00bb\u2014",                                              // non-ASCII punctuation and symbols
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tk := range []*Tokenizer{New(), {}} {
			want := encodePieces(tk, Pieces(s))
			if got := tk.Encode(s); !slices.Equal(got, want) {
				t.Fatalf("BOS=%d Encode(%q) = %v, want %v (pieces %q)", tk.BOS, s, got, want, Pieces(s))
			}
			if got := tk.Count(s); got != len(want) {
				t.Fatalf("BOS=%d Count(%q) = %d, want %d", tk.BOS, s, got, len(want))
			}
		}
	})
}

// profilePrompt is shaped like a serving prompt: a long user profile of
// short lowercase words framed by punctuated instructions.
var profilePrompt = "You rank posts for one user. User profile: " +
	strings.Repeat("reads distributed systems papers, cooks ramen and hikes often; ", 150) +
	". New post: consensus under partial synchrony. Should this post be recommended to the user? Answer:"

func TestEncodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	tk := New()
	if n := testing.AllocsPerRun(20, func() { sinkTokens = tk.Encode(profilePrompt) }); n != 1 {
		t.Errorf("Encode: %v allocs per call, want 1 (the returned slice)", n)
	}
	if n := testing.AllocsPerRun(20, func() { sinkCount = tk.Count(profilePrompt) }); n != 0 {
		t.Errorf("Count: %v allocs per call, want 0", n)
	}
}

var (
	sinkTokens []uint64
	sinkCount  int
)

func BenchmarkEncode(b *testing.B) {
	tk := New()
	tokens := tk.Count(profilePrompt)
	b.SetBytes(int64(len(profilePrompt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTokens = tk.Encode(profilePrompt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
}
