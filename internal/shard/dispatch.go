package shard

// Extent locates shard i's block inside the whole container file: its
// byte offset, header included, and its length — the numbers SAGe_Write
// placement (internal/instorage) needs to map the shard onto storage.
// The bytes themselves come from Block.
func (c *Container) Extent(i int) (offset, length int64, err error) {
	if err := c.checkIndex(i); err != nil {
		return 0, 0, err
	}
	e := c.Index.Entries[i]
	return c.blockBase + e.Offset, e.Length, nil
}
