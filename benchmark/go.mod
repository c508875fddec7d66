module wavefront/benchmark

go 1.22

require wavefront v0.0.0

replace wavefront => ../
