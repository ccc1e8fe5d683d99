package verify

// SemaGeneral exposes the general sema engine to the external tests that
// diff it against the analyzer's dense proof.
var SemaGeneral = semaGeneral
