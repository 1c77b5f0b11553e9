// Fixture for the directive analyzer: every //paylint: directive must be
// well-formed and attached to a construct it can suppress. Expectations
// for diagnostics reported on a directive's own line use a block comment
// on the same line, since a line comment cannot follow another.
package directive

// Buf mimics a solver with a scratch field.
type Buf struct {
	data []int
}

func (b *Buf) reset() { b.data = b.data[:0] }

// wellFormedSorted is the happy path: reasoned directive on a map range.
func wellFormedSorted(m map[int]int) int {
	n := 0
	//paylint:sorted count of keys is order-independent
	for range m {
		n++
	}
	return n
}

// Data is the happy path for aliases: the directive names a real field
// of the receiver.
//
//paylint:aliases data
func (b *Buf) Data() []int {
	return b.data
}

// missingReason omits the mandatory justification.
func missingReason(m map[int]int) int {
	n := 0
	/* want `//paylint:sorted needs a reason` */ //paylint:sorted
	for range m {
		n++
	}
	return n
}

// detachedSorted sits on an assignment, not a map range.
func detachedSorted() int {
	/* want `not attached to a range statement over a map` */ //paylint:sorted order is immaterial
	x := 1
	return x
}

// sliceSorted sits on a range over a slice, which needs no suppression.
func sliceSorted(xs []int) int {
	n := 0
	/* want `not attached to a range statement over a map` */ //paylint:sorted slices are ordered anyway
	for range xs {
		n++
	}
	return n
}

/* want `not attached to an exported function declaration` */ //paylint:aliases data
var detachedAliases int

// WrongField names a field the receiver does not have.
//
/* want `has no field named by "bogus"` */ //paylint:aliases bogus
func (b *Buf) WrongField() []int {
	return b.data
}

// missingField omits the mandatory field argument.
//
/* want `needs the name of the scratch field` */ //paylint:aliases
func (b *Buf) MissingField() []int {
	return b.data
}

/* want `unknown directive //paylint:nolint` */ //paylint:nolint just because
func unknownVerb()                              {}

/* want `unknown directive //paylint:atomic` */ //paylint:atomic read after all writers joined
func retiredVerb()                              {}
