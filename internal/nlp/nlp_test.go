package nlp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unsafe"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("Where is the Taj Mahal?")
	want := []string{"where", "is", "the", "taj", "mahal"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Fatalf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestTokenizePunctuationAndNumbers(t *testing.T) {
	toks := Tokenize("In 1987, the Pope (John Paul II) toured.")
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	want := []string{"in", "1987", "the", "pope", "john", "paul", "ii", "toured"}
	if !reflect.DeepEqual(texts, want) {
		t.Fatalf("texts = %v, want %v", texts, want)
	}
	if !isNumeric(toks[1].Text) {
		t.Fatal("1987 should be numeric")
	}
	if isNumeric(toks[7].Text) {
		t.Fatal("'toured' should not be numeric")
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("empty text produced %d tokens", len(got))
	}
	if got := Tokenize("  \t\n ,,, "); len(got) != 0 {
		t.Fatalf("punctuation-only text produced %d tokens", len(got))
	}
}

func TestStemmer(t *testing.T) {
	cases := map[string]string{
		"running":   "run",
		"cities":    "city",
		"buried":    "bury",
		"movements": "movement",
		"walked":    "walk",
		"quickly":   "quick",
		"dog":       "dog",
		"is":        "is",
		"answers":   "answer",
		"retrieval": "retrieval",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	f := func(s string) bool {
		w := strings.ToLower(s)
		if len(w) == 0 || len(w) > 20 {
			return true
		}
		for _, r := range w {
			if r < 'a' || r > 'z' {
				return true
			}
		}
		once := Stem(w)
		return len(Stem(once)) <= len(once) // stemming never grows a stem
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "is", "of", "The", "WHERE"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"pope", "taj", "disease"} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
}

func TestContentWords(t *testing.T) {
	toks := Tokenize("Where is the actress Marion Davies buried?")
	content := ContentWords(toks)
	var texts []string
	for _, tk := range content {
		texts = append(texts, tk.Text)
	}
	want := []string{"actress", "marion", "davies", "buried"}
	if !reflect.DeepEqual(texts, want) {
		t.Fatalf("content = %v, want %v", texts, want)
	}
}

func TestGazetteerRecognize(t *testing.T) {
	g := NewGazetteer(map[EntityType][]string{
		Location: {"Taj Mahal", "Hollywood Cemetery", "India"},
		Person:   {"Marion Davies", "Pope John Paul II"},
		Disease:  {"Tourette's Syndrome"},
	})
	toks := Tokenize("The Taj Mahal in India was visited by Pope John Paul II.")
	ents := g.Recognize(toks)
	byText := map[string]EntityType{}
	for _, e := range ents {
		byText[e.Text] = e.Type
	}
	if byText["Taj Mahal"] != Location {
		t.Errorf("Taj Mahal not recognized as LOCATION: %v", ents)
	}
	if byText["India"] != Location {
		t.Errorf("India not recognized: %v", ents)
	}
	if byText["Pope John Paul II"] != Person {
		t.Errorf("Pope John Paul II not recognized as PERSON: %v", ents)
	}
}

func TestGazetteerLongestMatchWins(t *testing.T) {
	g := NewGazetteer(map[EntityType][]string{
		Location: {"New York", "New York City"},
	})
	ents := g.Recognize(Tokenize("I love New York City in spring"))
	if len(ents) != 1 || ents[0].Text != "New York City" {
		t.Fatalf("ents = %v, want single New York City match", ents)
	}
}

func TestRecognizePatterns(t *testing.T) {
	g := NewGazetteer(nil)
	ents := g.Recognize(Tokenize("On March 12 1987 it cost 500 dollars and drew 12000 visitors."))
	var types []EntityType
	for _, e := range ents {
		types = append(types, e.Type)
	}
	haveDate, haveMoney, haveQty := false, false, false
	for _, e := range ents {
		switch e.Type {
		case Date:
			haveDate = true
			if !strings.Contains(e.Text, "march") {
				t.Errorf("date entity %q should span the month", e.Text)
			}
		case Money:
			haveMoney = true
		case Quantity:
			haveQty = true
		}
	}
	if !haveDate || !haveMoney || !haveQty {
		t.Fatalf("missing pattern entities, got %v", types)
	}
}

func TestYearPattern(t *testing.T) {
	g := NewGazetteer(nil)
	ents := g.Recognize(Tokenize("the treaty of 1987"))
	if len(ents) != 1 || ents[0].Type != Date || ents[0].Text != "1987" {
		t.Fatalf("ents = %v, want one DATE 1987", ents)
	}
}

func TestEntityTypeStrings(t *testing.T) {
	for _, typ := range EntityTypes() {
		s := typ.String()
		if s == "UNKNOWN" {
			t.Fatalf("concrete type %d stringifies to UNKNOWN", typ)
		}
		back, err := ParseEntityType(s)
		if err != nil || back != typ {
			t.Fatalf("round trip failed for %v: %v %v", typ, back, err)
		}
	}
	if _, err := ParseEntityType("NOPE"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestAnalyzeQuestionTypes(t *testing.T) {
	cases := []struct {
		q    string
		want EntityType
	}{
		{"Where is the Taj Mahal?", Location},
		{"Where is the actress Marion Davies buried?", Location},
		{"What is the nationality of Pope John Paul II?", Nationality},
		{"Who invented the telephone?", Person},
		{"When did the war end?", Date},
		{"How many islands does the nation include?", Quantity},
		{"How much money did the museum cost?", Money},
		{"What disease causes involuntary movements?", Disease},
		{"What is the name of the rare neurological disease with symptoms such as involuntary movements?", Disease},
		{"What company built the bridge?", Organization},
		{"What city hosts the festival?", Location},
		{"What year did the expedition start?", Date},
	}
	for _, c := range cases {
		got := AnalyzeQuestion(c.q)
		if got.AnswerType != c.want {
			t.Errorf("AnalyzeQuestion(%q).AnswerType = %v, want %v", c.q, got.AnswerType, c.want)
		}
	}
}

func TestAnalyzeQuestionKeywords(t *testing.T) {
	a := AnalyzeQuestion("Where is the actress Marion Davies buried?")
	joined := strings.Join(a.Keywords, " ")
	for _, want := range []string{"marion", "davy", "bury"} {
		// stems: davies→davy? Stem("davies") = "davy"? "ies"→"y": davies→davy. buried→bury.
		if !strings.Contains(joined, want) {
			t.Errorf("keywords %v missing %q", a.Keywords, want)
		}
	}
	for _, bad := range []string{"where", "the", "is"} {
		if strings.Contains(" "+joined+" ", " "+bad+" ") {
			t.Errorf("keywords %v should not contain %q", a.Keywords, bad)
		}
	}
}

func TestAnalyzeQuestionDeduplicates(t *testing.T) {
	a := AnalyzeQuestion("What city is the city of bridges?")
	count := 0
	for _, k := range a.Keywords {
		if k == "city" {
			count++
		}
	}
	if count > 1 {
		t.Fatalf("keyword 'city' appears %d times, want ≤1", count)
	}
}

// Property: every token is a non-empty lower-cased word with a stem.
func TestTokenizePositionsProperty(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		for _, tk := range toks {
			if tk.Text == "" || tk.Stem == "" {
				return false
			}
			if tk.Text != strings.ToLower(tk.Text) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// runeTokenize is the reference splitter: it converts the text to runes
// first, so invalid UTF-8 becomes U+FFFD before words are cut.
func runeTokenize(text string) []Token {
	var out []Token
	runes := []rune(text)
	start := -1
	for i := 0; i <= len(runes); i++ {
		if i < len(runes) && (unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i]) || runes[i] == '\'') {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			lower := strings.ToLower(string(runes[start:i]))
			out = append(out, Token{Text: lower, Stem: Stem(lower)})
			start = -1
		}
	}
	return out
}

// Property: the in-place splitter and the interner produce exactly the
// reference tokens, for any input — including invalid UTF-8.
func TestTokenizeMatchesRuneReference(t *testing.T) {
	in := NewInterner()
	f := func(s string, raw []byte) bool {
		for _, text := range []string{s, string(raw), s + "\xff" + s, "Ab\xc3cd Éé l'eau 42"} {
			want := runeTokenize(text)
			if !reflect.DeepEqual(Tokenize(text), want) || !reflect.DeepEqual(in.AppendTokens(nil, text), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInternerSharesStrings: every token of one word, in any text, refers
// to the same string data, and a stem equal to its word shares the word's.
func TestInternerSharesStrings(t *testing.T) {
	in := NewInterner()
	a := in.AppendTokens(nil, "Running dogs run")
	b := in.AppendTokens(nil, "the dog was running")
	if unsafe.StringData(a[0].Text) != unsafe.StringData(b[3].Text) {
		t.Fatal("'running' is stored twice")
	}
	if unsafe.StringData(a[0].Stem) != unsafe.StringData(a[2].Text) {
		t.Fatal("stem 'run' and word 'run' are stored twice")
	}
	if unsafe.StringData(a[1].Stem) != unsafe.StringData(b[1].Text) {
		t.Fatal("stem 'dog' and word 'dog' are stored twice")
	}
}
