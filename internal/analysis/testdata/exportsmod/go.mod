// The fixture of TestExportRuleOnFixture: a module shaped like this
// repository — a public package, two internal ones, and a benchmark
// module beside it that imports the internals through a replace.
module fixture

go 1.24
