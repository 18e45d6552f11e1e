package main

// Linux syscall numbers the standard syscall package does not name.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
