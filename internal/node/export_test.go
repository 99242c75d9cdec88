package node

// ToggleResampling runs the firmware's mode-toggle routine.
func (d *Driver) ToggleResampling() error {
	if _, err := d.node.CPU.Call(d.resample, 10_000); err != nil {
		return err
	}
	return d.node.Port.LastErr()
}
