module mntp/bench

go 1.22

require mntp v0.0.0

replace mntp => ../
