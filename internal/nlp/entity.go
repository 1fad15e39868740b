package nlp

import (
	"fmt"
	"strings"
)

// EntityType is the semantic class of a candidate answer. The paper's
// examples (Table 1) cover DISEASE, LOCATION and NATIONALITY; the full
// taxonomy here matches the factual-question classes of TREC-8/9.
type EntityType int

// Entity classes recognised by the pipeline.
const (
	UnknownEntity EntityType = iota
	Person
	Location
	Organization
	Date
	Quantity
	Money
	Disease
	Nationality
	numEntityTypes
)

// EntityTypes lists every concrete entity class (excluding UnknownEntity).
func EntityTypes() []EntityType {
	out := make([]EntityType, 0, numEntityTypes-1)
	for t := Person; t < numEntityTypes; t++ {
		out = append(out, t)
	}
	return out
}

// String returns the paper-style upper-case name of the class.
func (t EntityType) String() string {
	switch t {
	case Person:
		return "PERSON"
	case Location:
		return "LOCATION"
	case Organization:
		return "ORGANIZATION"
	case Date:
		return "DATE"
	case Quantity:
		return "QUANTITY"
	case Money:
		return "MONEY"
	case Disease:
		return "DISEASE"
	case Nationality:
		return "NATIONALITY"
	default:
		return "UNKNOWN"
	}
}

// Entity is a typed span of text found by the recogniser.
type Entity struct {
	Type EntityType
	// Text is the canonical surface form.
	Text string
	// Start and End are token positions [Start, End) within the text the
	// entity was found in.
	Start, End int
}

// Gazetteer maps known multi-word names to entity types, the way Falcon's
// dictionaries back its named-entity recogniser. Lookups are by lower-cased
// full phrase; the recogniser additionally applies surface patterns for
// dates, quantities and money.
type Gazetteer struct {
	// phrases maps the lower-cased first word of each known name to the
	// candidate full phrases starting with it (longest first).
	phrases map[string][]gazEntry
	size    int
}

type gazEntry struct {
	words []string
	typ   EntityType
	text  string
}

// NewGazetteer builds a recogniser dictionary from per-type name lists.
func NewGazetteer(names map[EntityType][]string) *Gazetteer {
	g := &Gazetteer{phrases: make(map[string][]gazEntry)}
	for typ, list := range names {
		for _, name := range list {
			g.Add(typ, name)
		}
	}
	return g
}

// Add inserts one name into the dictionary.
func (g *Gazetteer) Add(typ EntityType, name string) {
	words := Words(name)
	if len(words) == 0 {
		return
	}
	head := words[0]
	entry := gazEntry{words: words, typ: typ, text: name}
	list := g.phrases[head]
	// Keep longest-first so greedy matching prefers "New York City" over
	// "New York".
	pos := len(list)
	for i, e := range list {
		if len(e.words) < len(words) {
			pos = i
			break
		}
	}
	list = append(list, gazEntry{})
	copy(list[pos+1:], list[pos:])
	list[pos] = entry
	g.phrases[head] = list
	g.size++
}

// Size reports the number of names in the dictionary.
func (g *Gazetteer) Size() int { return g.size }

// Recognize finds all typed entities in a token stream: dictionary matches
// first (greedy, longest-first, non-overlapping), then surface patterns for
// dates, quantities and money over the remaining tokens.
func (g *Gazetteer) Recognize(tokens []Token) []Entity {
	var out []Entity
	used := make([]bool, len(tokens))
	// Dictionary pass.
	for i := 0; i < len(tokens); i++ {
		if used[i] {
			continue
		}
		entries := g.phrases[tokens[i].Text]
		for _, e := range entries {
			if i+len(e.words) > len(tokens) {
				continue
			}
			match := true
			for k, w := range e.words {
				if tokens[i+k].Text != w || used[i+k] {
					match = false
					break
				}
			}
			if match {
				out = append(out, Entity{Type: e.typ, Text: e.text, Start: i, End: i + len(e.words)})
				for k := range e.words {
					used[i+k] = true
				}
				break
			}
		}
	}
	// Pattern pass: dates ("march 12 1987", "1987"), quantities, money.
	for i := 0; i < len(tokens); i++ {
		if used[i] {
			continue
		}
		t := tokens[i]
		numeric := isNumeric(t.Text)
		switch {
		case isMonthName(t.Text):
			end := i + 1
			for end < len(tokens) && end < i+3 && isNumeric(tokens[end].Text) && !used[end] {
				end++
			}
			out = append(out, Entity{Type: Date, Text: joinTokens(tokens[i:end]), Start: i, End: end})
			for k := i; k < end; k++ {
				used[k] = true
			}
		case numeric && i+1 < len(tokens) && !used[i+1] &&
			(tokens[i+1].Text == "dollars" || tokens[i+1].Text == "usd"):
			out = append(out, Entity{Type: Money, Text: joinTokens(tokens[i : i+2]), Start: i, End: i + 2})
			used[i] = true
			used[i+1] = true
		case numeric && len(t.Text) == 4 && (strings.HasPrefix(t.Text, "1") || strings.HasPrefix(t.Text, "2")):
			out = append(out, Entity{Type: Date, Text: t.Text, Start: i, End: i + 1})
			used[i] = true
		case numeric:
			out = append(out, Entity{Type: Quantity, Text: t.Text, Start: i, End: i + 1})
			used[i] = true
		}
	}
	return out
}

func isMonthName(w string) bool {
	switch w {
	case "january", "february", "march", "april", "may", "june", "july",
		"august", "september", "october", "november", "december":
		return true
	}
	return false
}

func joinTokens(toks []Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

// ParseEntityType converts a paper-style name ("LOCATION") back to a type.
func ParseEntityType(s string) (EntityType, error) {
	for t := Person; t < numEntityTypes; t++ {
		if t.String() == strings.ToUpper(s) {
			return t, nil
		}
	}
	return UnknownEntity, fmt.Errorf("nlp: unknown entity type %q", s)
}
