//go:build !purego

package bsw

func init() { row16Built = true }
