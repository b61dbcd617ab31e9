module wdpt/bench

go 1.22

require wdpt v0.0.0

replace wdpt => ../
