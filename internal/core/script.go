package core

import "senss/internal/crypto/aes"

// Step actions.
const (
	// ActDrop suppresses the message for the victim (Type 1).
	ActDrop = iota
	// ActCorrupt flips ciphertext bit Arg in the victim's copy.
	ActCorrupt
	// ActDelay withholds the message and releases it after the victim's
	// next observed message — a pairwise reorder (Type 2) when applied
	// once, arbitrary reorders when chained.
	ActDelay
	// ActReplay captures the message on first use and appends the captured
	// copy to a later delivery (Type 3 replay). The first step to land for
	// a victim captures; later ones inject.
	ActReplay
	// ActSpoof appends a copy of the message claiming PID Arg (Type 3
	// spoof; claiming the victim's own PID trips the self-snoop alarm).
	ActSpoof
	// ActCount bounds the action space (decoders reduce modulo it).
	ActCount
)

// Step is one scripted manipulation: at wire broadcast Seq, reshape what
// receiver Victim observes. A victim that does not receive broadcast Seq
// — it sent it, or is outside the group — is hit at the next broadcast it
// receives. Arg parameterizes the action (bit position for corrupt,
// claimed PID for spoof).
type Step struct {
	Seq    uint64
	Action int
	Victim int
	Arg    int
}

// Script is the bus adversary of paper §3.2 — dropping, reordering,
// spoofing and replay — as a deterministic list of Steps, each of which
// lands at most once. It records, per receiver, the stream as sent and
// the stream as delivered; Deviated compares them after the run, so steps
// that cancel out (or never land) do not count as an attack.
type Script struct {
	procs int
	steps []Step

	landed   []int64      // per step: wire index it landed on, -1 while pending
	held     [][]Observed // per-victim delayed messages awaiting release
	captured []*Observed  // per-victim replay capture
	want     [][]Observed // per-victim stream as sent
	got      [][]Observed // per-victim stream as delivered
}

// NewScript creates a script adversary over nprocs processors.
func NewScript(nprocs int, steps []Step) *Script {
	landed := make([]int64, len(steps))
	for i := range landed {
		landed[i] = -1
	}
	return &Script{
		procs:    nprocs,
		steps:    steps,
		landed:   landed,
		held:     make([][]Observed, nprocs),
		captured: make([]*Observed, nprocs),
		want:     make([][]Observed, nprocs),
		got:      make([][]Observed, nprocs),
	}
}

// Tamper implements Tamperer. The ciphertext is the System's private
// copy, so the script keeps it without copying; only a corruption makes
// a fresh one.
func (s *Script) Tamper(seq uint64, sender int, receivers uint32, cipher []aes.Block) map[int][]Observed {
	orig := Observed{Cipher: cipher, Sender: sender}
	out := make(map[int][]Observed, s.procs)
	for pid := 0; pid < s.procs; pid++ {
		if receivers&(1<<uint(pid)) == 0 {
			continue
		}
		s.want[pid] = append(s.want[pid], orig)
		delivery := []Observed{orig}
		for i, st := range s.steps {
			if st.Victim != pid || st.Seq > seq || s.landed[i] >= 0 {
				continue
			}
			s.landed[i] = int64(seq)
			switch st.Action {
			case ActDrop:
				delivery = nil
			case ActCorrupt:
				if len(delivery) > 0 {
					last := &delivery[len(delivery)-1]
					c := append([]aes.Block(nil), last.Cipher...)
					if len(c) > 0 {
						bit := st.Arg % (len(c) * aes.BlockSize * 8)
						c[bit/(aes.BlockSize*8)][(bit/8)%aes.BlockSize] ^= 1 << (bit % 8)
					}
					last.Cipher = c
				}
			case ActDelay:
				s.held[pid] = append(s.held[pid], delivery...)
				delivery = nil
			case ActReplay:
				if cap := s.captured[pid]; cap != nil {
					delivery = append(delivery, *cap)
				} else {
					s.captured[pid] = &orig
				}
			case ActSpoof:
				delivery = append(delivery, Observed{Cipher: cipher, Sender: ((st.Arg % s.procs) + s.procs) % s.procs})
			}
		}
		// Release any delayed messages behind this broadcast's delivery —
		// the reorder lands as soon as the victim observes something again.
		if len(delivery) > 0 && len(s.held[pid]) > 0 {
			delivery = append(delivery, s.held[pid]...)
			s.held[pid] = nil
		}
		s.got[pid] = append(s.got[pid], delivery...)
		out[pid] = delivery
	}
	return out
}

// Landed reports the wire index of the first broadcast a step landed on.
func (s *Script) Landed() (seq uint64, ok bool) {
	for _, at := range s.landed {
		if at >= 0 && (!ok || uint64(at) < seq) {
			seq, ok = uint64(at), true
		}
	}
	return seq, ok
}

// Sent returns the messages receiver pid was sent, in bus order — what a
// passive wiretap on its snoop port records.
func (s *Script) Sent(pid int) []Observed { return s.want[pid] }

// Deviated reports whether any receiver's delivered stream differs from
// the stream as sent — the ground truth the detection property is checked
// against. Messages still held at the end of the run count as dropped.
func (s *Script) Deviated() bool {
	for pid := 0; pid < s.procs; pid++ {
		if len(s.held[pid]) > 0 || len(s.want[pid]) != len(s.got[pid]) {
			return true
		}
		for i := range s.want[pid] {
			if !observedEqual(s.want[pid][i], s.got[pid][i]) {
				return true
			}
		}
	}
	return false
}

func observedEqual(a, b Observed) bool {
	if a.Sender != b.Sender || len(a.Cipher) != len(b.Cipher) {
		return false
	}
	for i := range a.Cipher {
		if a.Cipher[i] != b.Cipher[i] {
			return false
		}
	}
	return true
}
