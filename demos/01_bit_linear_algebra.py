"""Tour of the GF(2) layer: packed vectors and matrices.

Everything downstream (codes, censuses, space-time constructions) sits
on these values, so this demo exercises the operations directly.
"""

from clusterbounds import BitMatrix, BitVector

# vectors are immutable bit strings with cheap XOR and popcount
a = BitVector.from01("101100")
b = BitVector.from_indices(6, [0, 5])
print("a        :", a)
print("b        :", b)
print("a xor b  :", a ^ b)
print("weight(a):", a.weight, "  support:", a.support())
print("a . b    :", a.dot(b))
print()

# rank, kernel and row-space membership via elimination
m = BitMatrix.from_lists(
    [
        [1, 0, 1, 1, 0],
        [0, 1, 1, 0, 1],
        [1, 1, 0, 1, 1],
    ]
)
print("matrix:")
print(m)
print("rank:", m.rank(), "   kernel dimension:", m.kernel_dimension())
for v in m.kernel_basis():
    print("kernel vector:", v, "-> M v =", m.mul_vec(v))

combo = m.row(0) ^ m.row(2)
print("row0 xor row2 in row space:", m.row_space_contains(combo))
print("some other vector in row space:", m.row_space_contains(BitVector.from01("10000")))
print()

# Kronecker products build the block matrices used by the space-time code
i2 = BitMatrix.identity(2)
h = BitMatrix.from_lists([[1, 1, 0], [0, 1, 1]])
print("I2 (x) H:")
print(i2.kron(h))
