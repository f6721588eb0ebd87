package types

import "fmt"

// Hash returns a 64-bit structural hash of the type, consistent with
// Equal: equal types hash equally. The map phase counts distinct types
// per partition (Tables 2-5); hashing directly over the structure avoids
// rendering every type to a string first, which dominates the cost on
// datasets where most types repeat.
//
// The hash is compositional: a node's hash is a function of its kind
// tag, its keys, tags and flags, and its children's hashes only. So a
// producer that builds a type bottom-up can carry each subtree's hash
// along and hash the parent in constant extra work per child, through
// HashBasic, HashRecord, HashTuple and HashCase, instead of walking the
// finished tree again. Hashes live in memory only (distinct counting);
// nothing persists them.
func Hash(t Type) uint64 {
	switch tt := t.(type) {
	case EmptyType:
		return finish(mixByte(fnvOffset, tagEmpty))
	case Basic:
		return HashBasic(tt)
	case *Record:
		h := mixByte(fnvOffset, tagRecord)
		for _, f := range tt.fields {
			h = mixField(h, f.Key, f.Optional, Hash(f.Type))
		}
		return finish(mixByte(h, tagRecordEnd))
	case *Map:
		return finish(mixWord(mixByte(fnvOffset, tagMap), Hash(tt.elem)))
	case *Variants:
		h := variantsMode(tt.key, tt.wrapper, tt.collapsed)
		for _, c := range tt.cases {
			h = mixWord(mixString(h, c.Tag), Hash(c.Type))
		}
		if tt.other != nil {
			h = mixWord(mixByte(h, tagOther), Hash(tt.other))
		}
		return finish(mixByte(h, tagVariantsEnd))
	case *Tuple:
		h := mixByte(fnvOffset, tagTuple)
		for _, e := range tt.elems {
			h = mixWord(h, Hash(e))
		}
		return finish(mixByte(h, tagTupleEnd))
	case *Repeated:
		return finish(mixWord(mixByte(fnvOffset, tagRepeated), Hash(tt.elem)))
	case *Union:
		h := mixByte(fnvOffset, tagUnion)
		for _, a := range tt.alts {
			h = mixWord(h, Hash(a))
		}
		return finish(mixByte(h, tagUnionEnd))
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
}

// HashBasic returns Hash(b).
func HashBasic(b Basic) uint64 {
	return finish(mixByte(mixByte(fnvOffset, tagBasic), byte(b)))
}

// HashRecord returns Hash of the record with the given key-sorted
// fields, where hashes[i] is Hash(fields[i].Type); the fields' Type
// members are not read.
func HashRecord(fields []Field, hashes []uint64) uint64 {
	h := mixByte(fnvOffset, tagRecord)
	for i := range fields {
		h = mixField(h, fields[i].Key, fields[i].Optional, hashes[i])
	}
	return finish(mixByte(h, tagRecordEnd))
}

// HashTuple returns Hash of the tuple whose element types hash to
// hashes, in order.
func HashTuple(hashes []uint64) uint64 {
	h := mixByte(fnvOffset, tagTuple)
	for _, e := range hashes {
		h = mixWord(h, e)
	}
	return finish(mixByte(h, tagTupleEnd))
}

// HashCase returns Hash of the single-case keyed (wrapper false) or
// wrapper (key "", wrapper true) variants type whose one case maps tag
// to a record hashing to rec, with no Other record.
func HashCase(key string, wrapper bool, tag string, rec uint64) uint64 {
	h := mixWord(mixString(variantsMode(key, wrapper, false), tag), rec)
	return finish(mixByte(h, tagVariantsEnd))
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Tag bytes of the hash encoding: one per node kind (with an end
// marker for the variable-length ones), per field optionality and per
// variants mode.
const (
	tagEmpty byte = iota + 1
	tagBasic
	tagRecord
	tagRecordEnd
	tagMap
	tagTuple
	tagTupleEnd
	tagRepeated
	tagUnion
	tagUnionEnd
	tagVariants
	tagVariantsEnd
	tagMandatory
	tagOptional
	tagCollapsed
	tagWrapper
	tagKeyed
	tagOther
)

func mixByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

// mixWord folds a child's hash in one step. Multiplying by the odd
// prime is a bijection, so distinct child hashes keep distinct states.
func mixWord(h, w uint64) uint64 {
	return (h ^ w) * fnvPrime
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mixByte(h, s[i])
	}
	// Terminate so "ab"+"c" and "a"+"bc" differ.
	return mixByte(h, 0xff)
}

// mixField folds one record field: key, optionality, content hash.
func mixField(h uint64, key string, optional bool, child uint64) uint64 {
	h = mixString(h, key)
	if optional {
		h = mixByte(h, tagOptional)
	} else {
		h = mixByte(h, tagMandatory)
	}
	return mixWord(h, child)
}

// variantsMode starts a variants hash with its discriminator mode.
func variantsMode(key string, wrapper, collapsed bool) uint64 {
	h := mixByte(fnvOffset, tagVariants)
	switch {
	case collapsed:
		return mixByte(h, tagCollapsed)
	case wrapper:
		return mixByte(h, tagWrapper)
	default:
		return mixString(mixByte(h, tagKeyed), key)
	}
}

// finish scrambles a node's accumulated state (the murmur3 64-bit
// finalizer) so its hash spreads over all 64 bits before a parent
// mixes it in as one word.
func finish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
