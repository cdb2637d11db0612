module spongefiles/benchmark

go 1.22

require spongefiles v0.0.0

replace spongefiles => ../
