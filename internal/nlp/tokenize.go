// Package nlp provides the light natural-language machinery the Falcon-style
// question/answering pipeline is built from: tokenisation, stopword
// filtering, a light suffix stemmer, a dictionary-driven named-entity
// recogniser, and the answer-type classifier used by the Question Processing
// module.
//
// Falcon's real NLP stack (named-entity recognition, syntactic parsing,
// WordNet-based semantics) is proprietary and far heavier than needed here:
// the paper treats the modules as black boxes characterised by their
// resource profiles (Table 2, Table 3). This package reproduces the
// functional interfaces — keywords in, typed candidate answers out — so the
// distributed architecture has real work to schedule, while the virtual cost
// model (package qa) reproduces the paper's timing profile.
package nlp

import (
	"strings"
	"unicode"
)

// Token is a normalised word occurrence within a text. Its position in the
// text is its index in the slice Tokenize returns.
type Token struct {
	// Text is the lower-cased surface form.
	Text string
	// Stem is the stemmed form used for matching.
	Stem string
}

// Tokenize splits text into normalised tokens. Words are maximal runs of
// letters, digits or apostrophes; everything else separates tokens.
func Tokenize(text string) []Token { return appendTokens(nil, text, nil) }

// Interner tokenizes many texts while sharing their strings: each distinct
// surface word is lower-cased and stemmed once, and every token of it, in
// any text, refers to the same Text and Stem data. A corpus holds a few
// thousand distinct words across a million tokens, so this is what keeps
// the token streams it stores at 32 bytes a token. An Interner is not safe
// for concurrent use.
type Interner struct {
	// words maps a raw surface word to its token.
	words map[string]Token
	// strs holds every lower-cased word and stem handed out.
	strs map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{words: make(map[string]Token), strs: make(map[string]string)}
}

// AppendTokens appends the tokens of text to dst, exactly as Tokenize would
// produce them, with interned strings.
func (in *Interner) AppendTokens(dst []Token, text string) []Token {
	return appendTokens(dst, text, in)
}

// appendTokens is Tokenize's word splitter. Ranging over the string decodes
// UTF-8 in place; an invalid byte decodes to utf8.RuneError, which is not a
// word rune, so it separates tokens just as a []rune conversion would.
func appendTokens(dst []Token, text string, in *Interner) []Token {
	start := -1
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, in.token(text[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, in.token(text[start:]))
	}
	return dst
}

// token normalises one surface word. A nil interner allocates fresh strings.
func (in *Interner) token(word string) Token {
	if in == nil {
		lower := strings.ToLower(word)
		return Token{Text: lower, Stem: Stem(lower)}
	}
	if t, ok := in.words[word]; ok {
		return t
	}
	lower := in.intern(strings.ToLower(word))
	t := Token{Text: lower, Stem: in.intern(Stem(lower))}
	key := lower
	if word != lower {
		key = strings.Clone(word)
	}
	in.words[key] = t
	return t
}

// intern returns the interner's copy of s, adding one if needed. The copy
// never aliases s, which may be a slice of a longer text.
func (in *Interner) intern(s string) string {
	if v, ok := in.strs[s]; ok {
		return v
	}
	s = strings.Clone(s)
	in.strs[s] = s
	return s
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// Words returns just the lower-cased word strings of a text.
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// stopwords is a compact English function-word list. Keyword selection
// (Question Processing) and indexing both skip these.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a an and are as at be been but by can could did do does for from had has
have he her him his how i if in into is it its me my no nor not of on or
our she so such that the their them then there these they this those to
was we were what when where which who whom why will with would you your
about above after again against all am any because before being below
between both down during each few further here more most off once only
other out over own same some than too under until up very s t don now
name names called`) {
		stopwords[w] = true
	}
}

// IsStopword reports whether the lower-cased word is a function word.
func IsStopword(w string) bool { return stopwords[strings.ToLower(w)] }

// ContentWords filters tokens down to non-stopword tokens.
func ContentWords(tokens []Token) []Token {
	var out []Token
	for _, t := range tokens {
		if !IsStopword(t.Text) {
			out = append(out, t)
		}
	}
	return out
}

// Stem applies a light suffix-stripping stemmer (a simplified Porter step 1)
// sufficient for matching question keywords against document terms.
func Stem(w string) string {
	if len(w) <= 3 {
		return w
	}
	// Order matters: longest suffixes first.
	suffixes := []struct{ suf, rep string }{
		{"ational", "ate"},
		{"ization", "ize"},
		{"fulness", "ful"},
		{"ousness", "ous"},
		{"iveness", "ive"},
		{"tional", "tion"},
		{"biliti", "ble"},
		{"lities", "lity"},
		{"ingly", ""},
		{"edly", ""},
		{"ments", "ment"},
		{"ation", "ate"},
		{"ness", ""},
		{"ions", "ion"},
		{"ings", "ing"},
		{"ing", ""},
		{"ies", "y"},
		{"ied", "y"},
		{"est", ""},
		{"ed", ""},
		{"ly", ""},
		{"es", ""},
		{"s", ""},
	}
	for _, s := range suffixes {
		if strings.HasSuffix(w, s.suf) && len(w)-len(s.suf)+len(s.rep) >= 3 {
			stem := w[:len(w)-len(s.suf)] + s.rep
			// Undouble final consonants produced by -ing/-ed stripping
			// ("running" → "runn" → "run").
			if n := len(stem); n >= 2 && stem[n-1] == stem[n-2] && !isVowelByte(stem[n-1]) {
				stem = stem[:n-1]
			}
			return stem
		}
	}
	return w
}

func isVowelByte(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
