module nested

go 1.22
