package diffcheck

// checkRelaunching is Check with launch reuse turned off: the
// speculative build is always simulated, even when it is the baseline
// build on the baseline launch.
func checkRelaunching(k Kernel, opts Options) Result { return check(k, opts, false) }
