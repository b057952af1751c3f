module mspastry/bench

go 1.22

require mspastry v0.0.0

replace mspastry => ../
