package workloads

import (
	"testing"
)

// tokenCount is CountWord's definition: the number of maximal [a-z] runs
// in data equal to word.
func tokenCount(data []byte, word string) int {
	n := 0
	tokenize(data, func(w []byte) {
		if string(w) == word {
			n++
		}
	})
	return n
}

func TestCountWord(t *testing.T) {
	cases := []struct {
		data, word string
		want       int
	}{
		{"the cat sat", "cat", 1},
		{"cat", "cat", 1},
		{"cat,cat.cat", "cat", 3},
		{"cats concat cat", "cat", 1},
		{"aaa", "aa", 0},
		{"aa aa", "aa", 2},
		{"Cat cat", "cat", 1},
		{"cat9cat", "cat", 2},
		{"caté cat", "cat", 2},
		{"the cat", "", 0},
		{"The Cat", "Cat", 0},
		{"ab1 ab1", "ab1", 0},
		{"", "cat", 0},
	}
	for _, c := range cases {
		if got := CountWord([]byte(c.data), c.word); got != c.want {
			t.Errorf("CountWord(%q, %q) = %d, want %d", c.data, c.word, got, c.want)
		}
		if got := tokenCount([]byte(c.data), c.word); got != c.want {
			t.Errorf("tokenCount(%q, %q) = %d, want %d", c.data, c.word, got, c.want)
		}
	}
}

// FuzzCountWord checks the matcher against its definition for any bytes
// and any word. The committed corpus covers the empty word, upper-case,
// digit and non-ASCII bytes, hits at both ends of the data and a word
// inside a longer run of the same letter.
func FuzzCountWord(f *testing.F) {
	f.Add([]byte("the cat sat on the mat"), "the")
	f.Fuzz(func(t *testing.T, data []byte, word string) {
		if got, want := CountWord(data, word), tokenCount(data, word); got != want {
			t.Fatalf("CountWord(%q, %q) = %d, want %d", data, word, got, want)
		}
	})
}

func BenchmarkCountWord(b *testing.B) {
	dict := MakeDictionary(200)
	text := MakeText(512<<10, TextSpec{Dict: dict, DictFraction: 0.8, Seed: 1})
	words := dict.Words[:20]
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountWord(text, words[i%len(words)])
	}
}
