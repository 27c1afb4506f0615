module atomemu/bench

go 1.23

require atomemu v0.0.0

replace atomemu => ../
