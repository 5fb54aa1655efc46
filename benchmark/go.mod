module sage/benchmark

go 1.24

require sage v0.0.0

replace sage => ../
