module fixture/benchmark

go 1.24

require fixture v0.0.0

replace fixture => ../
