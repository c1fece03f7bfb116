// The benchmark is a module of its own so that the root module's build,
// vet and test runs are unchanged by it; the nmad/ path prefix keeps the
// engine's internal packages importable.
module nmad/benchmark

go 1.24

require nmad v0.0.0

replace nmad => ../
