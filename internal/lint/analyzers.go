package lint

// All returns every registered analyzer, in stable order. Each one guards
// an invariant of the protocol or an engineering rule of this repository;
// DESIGN.md's "Invariants as analyzers" section documents the mapping and
// names a mutant of the production code each one flags.
func All() []*Analyzer {
	return []*Analyzer{
		QuorumShape,
		ErrWrapped,
		DetRand,
		ObsWire,
		ZeroCopy,
	}
}
