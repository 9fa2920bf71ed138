type t = int (* invariant: 0..255 *)

let none = 0x00

let all = 0xFF

let read = 0x01

let delete = 0x02

let modify = 0x04

let union = ( lor )

let inter = ( land )

let subset a b = a land b = a

let mem = subset

let equal = Int.equal

let to_int t = t

let of_int v = v land 0xFF
