package simt

import "specrecon/internal/ir"

// Machine is Run bound to one module: NewMachine validates the module and
// a launch configuration up front, and every Machine.Run is Run of that
// module, loaded into a retired launch arena like any other. Its one
// caller outside the tests is the benchmark's traced split of a launch
// into validation and the launch itself. A Result owns its buffers, and
// Runs may be concurrent.
type Machine struct {
	m *ir.Module
}

// NewMachine validates m and cfg exactly like Run.
func NewMachine(m *ir.Module, cfg Config) (*Machine, error) {
	if _, _, err := normalizeConfig(m, cfg); err != nil {
		return nil, err
	}
	return &Machine{m: m}, nil
}

// Run is Run(m, cfg) of the machine's module.
func (mc *Machine) Run(cfg Config) (*Result, error) { return Run(mc.m, cfg) }
