type t = { key : Crypto.key }

let of_passphrase phrase = { key = Crypto.key_of_string phrase }

let mask48 = 0xFFFF_FFFF_FFFFL

let fresh_random _t prng = Int64.logand (Amoeba_sim.Prng.next_int64 prng) mask48

(* Pack rights into the top 16 bits and the 48-bit random below; the whole
   64-bit block is then encrypted, so flipping any rights bit scrambles
   the entire check field. *)
let plaintext ~random ~rights =
  Int64.logor
    (Int64.shift_left (Int64.of_int (Rights.to_int rights)) 48)
    (Int64.logand random mask48)

let seal t ~random ~rights = Crypto.encrypt t.key (plaintext ~random ~rights)

let verify t ~random ~cap =
  let open Capability in
  Int64.equal (Crypto.decrypt t.key cap.check) (plaintext ~random ~rights:cap.rights)

let unseal t ~check =
  let plain = Crypto.decrypt t.key check in
  let rights = Rights.of_int (Int64.to_int (Int64.shift_right_logical plain 48) land 0xFFFF) in
  (rights, Int64.logand plain mask48)

(* A station that holds the sealer can check a capability's authenticity
   without the inode: decrypting a genuine check field must reproduce the
   rights carried in the clear. The 48-bit random also pops out, but only
   the server can compare it against the inode — local verification says
   "sealed by this server with these rights", not "the object still
   exists"; existence/freshness is the lease protocol's job. *)
let verify_local t ~cap =
  let rights, _random = unseal t ~check:cap.Capability.check in
  Rights.to_int rights = Rights.to_int cap.Capability.rights

let restrict t ~random ~cap ~rights =
  if not (verify t ~random ~cap) then None
  else
    let narrowed = Rights.inter cap.Capability.rights rights in
    Some
      (Capability.v ~port:cap.Capability.port ~obj:cap.Capability.obj ~rights:narrowed
         ~check:(seal t ~random ~rights:narrowed))
