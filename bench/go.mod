module tca/bench

go 1.22

require tca v0.0.0

replace tca => ../
