// Banktransfer: multi-key transactions on the quorum store. A transfer
// debits one account and credits another inside a transaction, so the two
// writes commit atomically — either both balances change or neither does —
// matching the paper's system model of transactions finished by two-phase
// commit.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"

	"arbor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	t, err := arbor.ParseTree("1-3-5")
	if err != nil {
		return err
	}
	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 11})
	if err != nil {
		return err
	}
	defer c.Close()
	cli, err := c.NewClient()
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Seed two accounts.
	if _, err := cli.Write(ctx, "acct:alice", []byte("100")); err != nil {
		return err
	}
	if _, err := cli.Write(ctx, "acct:bob", []byte("100")); err != nil {
		return err
	}
	fmt.Println("opening balances: alice=100 bob=100")

	// Transfer 30 from alice to bob, atomically.
	if err := transfer(ctx, cli, "acct:alice", "acct:bob", 30); err != nil {
		return err
	}
	if err := printBalances(ctx, cli); err != nil {
		return err
	}

	// A transfer that fails business validation aborts: no key changes.
	if err := transfer(ctx, cli, "acct:alice", "acct:bob", 1000); err != nil {
		fmt.Printf("transfer of 1000 rejected: %v\n", err)
	}
	return printBalances(ctx, cli)
}

// transfer moves amount between two accounts inside one transaction.
func transfer(ctx context.Context, cli *arbor.Client, from, to string, amount int) error {
	tx := cli.NewTxn()
	fromBal, err := readBalance(ctx, tx, from)
	if err != nil {
		tx.Abort()
		return err
	}
	toBal, err := readBalance(ctx, tx, to)
	if err != nil {
		tx.Abort()
		return err
	}
	if fromBal < amount {
		tx.Abort()
		return errors.New("insufficient funds")
	}
	if err := tx.Write(from, []byte(strconv.Itoa(fromBal-amount))); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Write(to, []byte(strconv.Itoa(toBal+amount))); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(ctx); err != nil {
		return fmt.Errorf("transfer commit: %w", err)
	}
	fmt.Printf("transferred %d from %s to %s\n", amount, from, to)
	return nil
}

func readBalance(ctx context.Context, tx *arbor.Txn, key string) (int, error) {
	v, err := tx.Read(ctx, key)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(v))
}

func printBalances(ctx context.Context, cli *arbor.Client) error {
	for _, key := range []string{"acct:alice", "acct:bob"} {
		rd, err := cli.Read(ctx, key)
		if err != nil {
			return err
		}
		fmt.Printf("  %s = %s\n", key, rd.Value)
	}
	return nil
}
