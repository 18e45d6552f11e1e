package main

// Linux syscall numbers the standard syscall package does not name.
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
