package ir

// The reference printer (print_ref_test.go), for the external tests that
// need packages importing this one to build their comparison sets.
var (
	RefPrint         = refPrint
	RefPrintFunction = refPrintFunction
	RefFormatInstr   = refFormatInstr
)
