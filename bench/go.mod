module khazana/bench

go 1.22

require khazana v0.0.0

replace khazana => ../
